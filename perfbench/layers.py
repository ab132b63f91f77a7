"""Per-layer metrics from the spans of a traced run.

Only spans inside timed ops count.  ``self_s`` is a span's duration minus
the time its child spans cover; ``.s`` is the whole duration.  Counts are
totals over the run, except ``extraction.trace.leaves`` and ``.depth``
(the largest trace) and ``network.forward.peak_rows_x_slots`` (the largest
forward pass, rows times gate slots, which sets the size of its biggest
arrays).  ``ops.untimed_s`` is the op time that no traced call covers, so
the self times of all spans add up to the traced op wall time
(``ops.*.s``).
"""

from __future__ import annotations

import numpy as np

UNITS = {"calls": "count", "elements": "count",
         "rows": "count", "forwards": "count", "steps": "count", "epochs": "count",
         "leaves": "count", "depth": "count", "spans": "count",
         "peak_rows_x_slots": "count", "bytes": "bytes", "bytes_computed": "bytes",
         "ns_per_element": "ns"}


def per_layer(tracer, import_s: float) -> dict:
    spans = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    in_op = spans["op"] >= 0
    parent_name = np.where(spans["parent"] >= 0, spans["name"][spans["parent"]], -1)
    dur = spans["end"] - spans["start"]

    def mask(name, parent=None):
        m = in_op & (spans["name"] == ids.get(name, -1))
        return m if parent is None else m & (parent_name == ids.get(parent, -1))

    def calls(name, parent=None):
        return int(np.sum(mask(name, parent)))

    def self_s(name):
        return float(np.sum(spans["self"][mask(name)]))

    def total_s(name):
        return float(np.sum(dur[mask(name)]))

    def count(name, field="count", reduce=np.sum):
        values = spans[field][mask(name)]
        return float(reduce(values)) if values.size else 0.0

    values = {"setup.import_s": import_s}
    for kernel in ("squash", "squash_grad"):
        name = f"operators.{kernel}"
        elements = count(name)
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.elements"] = elements
        values[f"{name}.self_s"] = self_s(name)
        values[f"{name}.ns_per_element"] = 1e9 * self_s(name) / elements if elements else 0.0
    values["operators.squash.bytes_computed"] = 16.0 * values["operators.squash.elements"]
    values.update({
        "network.forward.calls": calls("network.forward"),
        "network.forward.rows": count("network.forward"),
        "network.forward.self_s": self_s("network.forward"),
        "network.forward.peak_rows_x_slots": count("network.forward", "aux", np.max),
        "network.normalize.self_s": self_s("network.normalize"),
        "network.operands.self_s": self_s("network.operands"),
        "network.backward.calls": calls("network.backward"),
        "network.backward.self_s": self_s("network.backward"),
        "network.scatter.self_s": self_s("network.scatter"),
        "training.steps": calls("network.backward"),
        "training.epochs": calls("training.evaluate", "training.train"),
        "training.loop.self_s": self_s("training.train"),
        "training.evaluate.calls": calls("training.evaluate"),
        "training.evaluate.rows": count("training.evaluate"),
        "training.evaluate.self_s": self_s("training.evaluate"),
        "extraction.ablation.forwards": calls("network.forward", "extraction.ablation"),
        "extraction.ablation.self_s": self_s("extraction.ablation"),
        "extraction.trace.s": total_s("extraction.trace"),
        "extraction.trace.leaves": count("extraction.trace", "count", np.max),
        "extraction.trace.depth": count("extraction.trace", "aux", np.max),
        "extraction.faithfulness.self_s": self_s("extraction.faithfulness"),
        "extraction.labels.s": total_s("extraction.labels"),
        "expressions.render.s": total_s("expressions.render"),
        "data.load_csv.s": total_s("data.load_csv"),
        "data.load_csv.rows": count("data.load_csv"),
        "network.serialize.s": total_s("network.serialize"),
        "network.serialize.bytes": count("network.serialize"),
        "network.load.s": total_s("network.load"),
        "cli.train.self_s": self_s("cli.train"),
        "cli.eval.self_s": self_s("cli.eval"),
    })
    for kind in ("train", "eval", "extract"):
        values[f"ops.{kind}.s"] = total_s(f"op.{kind}")
    values["ops.untimed_s"] = sum(self_s(f"op.{kind}") for kind in ("train", "eval", "extract"))
    values["trace.spans"] = int(np.sum(in_op))
    return {name: {"value": value, "unit": unit(name)} for name, value in values.items()}


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return "s" if last == "s" or last.endswith("_s") else UNITS[last]
