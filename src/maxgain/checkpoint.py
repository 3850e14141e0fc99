"""Line-oriented text checkpoints that round-trip weights bit-exactly.

Layout (version 1):

    maxgain-checkpoint v1
    stages <count>
    stage <kind> [key=value ...]
    array <name> <ndim> <dim...>
    <values, space separated, 17 significant digits>
    ...
    end

A stage's kind, attributes, arrays and parts are the ones its class declares
(layers.STAGE_TYPES): every hyperparameter as key=value, then the learned
arrays, any state arrays and each part's stage blocks, in declared order. So
a residual block is `stage residual`, `main <k>`, k stage blocks, `shortcut <m>`
(0 means identity), m stage blocks, `end`. 17 significant digits are enough to
reproduce every float64 exactly on parse.

Numbers are read as config fields are: counts and dims are non-negative
integers, attributes go through the stage's hyper table, and array values
must be finite.
"""

import math

from .errors import FormatError, InvalidValueError, ShapeError
from .data import cell, write_text
from .layers import STAGE_TYPES, Network, at_least, integer, parse_fields, parse_value, reals

_HEADER = "maxgain-checkpoint v1"
_COUNT = at_least(0, integer)


def _emit_array(lines, name, arr):
    lines.append(" ".join(["array", name, *map(cell, (arr.ndim, *arr.shape))]))
    lines.append(" ".join(map(cell, arr.ravel().tolist())))


def _emit_stage(lines, st):
    cls = type(st)
    if STAGE_TYPES.get(getattr(cls, "kind", None)) is not cls:
        raise InvalidValueError(f"cannot checkpoint stage type {cls.__name__}")
    lines.append(" ".join([f"stage {cls.kind}"] + [f"{k}={cell(getattr(st, k))}" for k in cls.hyper]))
    for name in cls.param_names + cls.state:
        _emit_array(lines, name, getattr(st, name))
    for part in cls.parts:
        subs = getattr(st, part) or []
        lines.append(f"{part} {len(subs)}")
        for sub in subs:
            _emit_stage(lines, sub)
    lines.append("end")


def network_to_text(net):
    lines = [_HEADER, f"stages {len(net.stages)}"]
    for st in net.stages:
        _emit_stage(lines, st)
    return "\n".join(lines) + "\n"


def save_network(net, path):
    write_text(path, network_to_text(net))


class _Reader:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, what="line"):
        if self.pos >= len(self.lines):
            raise FormatError(f"unexpected end of checkpoint, wanted {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def at_end(self):
        return self.pos >= len(self.lines)


def _parse_attrs(tokens, what):
    attrs = {}
    for tok in tokens:
        if "=" not in tok:
            raise FormatError(f"malformed attribute {tok!r} in {what}")
        key, value = tok.split("=", 1)
        attrs[key] = value
    return attrs


def _read_array(reader, expect_name, stage):
    head = reader.next(f"array {expect_name}").split()
    if len(head) < 3 or head[0] != "array" or head[1] != expect_name:
        raise FormatError(f"expected array {expect_name!r}, got {' '.join(head)!r}")
    what = f"array {expect_name} of {stage}"
    ndim = parse_value(what, "ndim", _COUNT, head[2], FormatError)
    dims = [parse_value(what, "dims", _COUNT, d, FormatError) for d in head[3:]]
    if len(dims) != ndim:
        raise FormatError(f"{what}: {ndim} dims declared, {len(dims)} given")
    count = math.prod(dims)
    values = reader.next(f"values of {expect_name}").split()
    if len(values) != count:
        raise FormatError(f"{what}: expected {count} values, got {len(values)}")
    return parse_value(what, "values", reals, values, FormatError).reshape(dims)


def _expect_end(reader, what):
    line = reader.next(f"end of {what}")
    if line != "end":
        raise FormatError(f"expected 'end' closing {what}, got {line!r}")


def _parse_stages(reader, part):
    head = reader.next(f"{part} count").split()
    if len(head) != 2 or head[0] != part:
        raise FormatError(f"expected '{part} <count>', got {' '.join(head)!r}")
    count = parse_value(f"{part} line", "count", _COUNT, head[1], FormatError)
    return [_parse_stage(reader) for _ in range(count)]


def _parse_stage(reader):
    head = reader.next("stage header").split()
    if not head or head[0] != "stage":
        raise FormatError(f"expected a stage header, got {' '.join(head)!r}")
    if len(head) < 2:
        raise FormatError("stage header is missing its type")
    kind, what = head[1], f"{head[1]} stage"
    cls = STAGE_TYPES.get(kind)
    if cls is None:
        raise FormatError(f"unknown stage type {kind!r}")
    hyper = parse_fields(what, cls.hyper, _parse_attrs(head[2:], what), FormatError)
    args = [_read_array(reader, name, what) for name in cls.param_names + cls.state]
    args += [_parse_stages(reader, part) for part in cls.parts]
    _expect_end(reader, what)
    try:
        return cls(*args, **hyper)
    except (InvalidValueError, ShapeError) as err:
        raise FormatError(f"bad {what}: {err}") from None


def network_from_text(text):
    reader = _Reader(text)
    if reader.next("header") != _HEADER:
        raise FormatError(f"not a checkpoint file (expected {_HEADER!r} header)")
    stages = _parse_stages(reader, "stages")
    if not reader.at_end():
        raise FormatError(f"trailing content after the last stage: {reader.next()!r}")
    return Network(stages)


def load_network(path):
    with open(path) as fh:
        return network_from_text(fh.read())
