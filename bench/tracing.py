"""Spans and counts for the benchmark's traced run, recorded from outside
the program under test.

The tracer wraps public functions of each layer at every module where they
are bound (``from ... import`` copies the binding, so ``matrices.rref_rows``
and ``_kernels.rref_rows`` are both replaced).  Each call records a span --
name, start, end, parent span and instance id -- in flat arrays, plus counts
at the kernel boundary.  Nothing is written until the run ends.

Self time is a span's duration minus the time its child spans cover.  The
time a kernel hook spends computing its counts is kept out of every span's
duration, so it lands in no layer.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name); the layer is the span name's prefix.
TARGETS = (
    ("fredpairs._kernels", "mat_mul", "kernels.mat_mul"),
    ("fredpairs._kernels", "rref_rows", "kernels.rref_rows"),
    ("fredpairs.matrices", "RatMatrix.__matmul__", "matrices.matmul"),
    ("fredpairs.matrices", "RatMatrix.rref", "matrices.rref"),
    ("fredpairs.matrices", "RatMatrix.inverse", "matrices.inverse"),
    ("fredpairs.matrices", "RatMatrix.pseudoinverse", "matrices.pinv"),
    ("fredpairs.matrices", "hstack", "matrices.hstack"),
    ("fredpairs.matrices", "vstack", "matrices.vstack"),
    ("fredpairs.matrices", "block", "matrices.block"),
    ("fredpairs.matrices", "direct_sum", "matrices.direct_sum"),
    ("fredpairs.subspaces", "kernel_basis", "subspaces.kernel_basis"),
    ("fredpairs.subspaces", "image_basis", "subspaces.image_basis"),
    ("fredpairs.subspaces", "Subspace.__and__", "subspaces.meet"),
    ("fredpairs.subspaces", "Subspace.contains", "subspaces.contains"),
    ("fredpairs.subspaces", "quotient", "subspaces.quotient"),
    ("fredpairs.subspaces", "induced_map", "subspaces.induced_map"),
    ("fredpairs.pairs", "pair_defects", "pairs.pair_defects"),
    ("fredpairs.pairs", "induced_pair", "pairs.induced_pair"),
    ("fredpairs.pairs", "build_extensions", "pairs.build_extensions"),
    ("fredpairs.pairs", "verify_theorem_3_4", "pairs.verify_3_4"),
    ("fredpairs.pairs", "verify_theorem_3_6", "pairs.verify_3_6"),
    ("fredpairs.chains", "chain_defects", "chains.chain_defects"),
    ("fredpairs.chains", "fold_to_pair", "chains.fold_to_pair"),
    ("fredpairs.chains", "quotient_chain", "chains.quotient_chain"),
    ("fredpairs.chains", "verify_remark_2_3", "chains.verify_2_3"),
    ("fredpairs.chains", "verify_theorem_4_2", "chains.verify_4_2"),
    ("fredpairs.chains", "verify_theorem_4_4", "chains.verify_4_4"),
    ("fredpairs.generators", "random_pair", "generators.random_pair"),
    ("fredpairs.generators", "random_chain", "generators.random_chain"),
    ("fredpairs.cli", "_load_json", "cli.load_json"),
    ("fredpairs.pairs", "PairInstance.from_json_obj", "cli.parse_pair"),
    ("fredpairs.chains", "ChainInstance.from_json_obj", "cli.parse_chain"),
    ("fredpairs.pairs", "PairDefects.to_json_obj", "cli.encode_pair_defects"),
    ("fredpairs.chains", "ChainDefects.to_json_obj", "cli.encode_chain_defects"),
    ("fredpairs.pairs", "TheoremReport.to_json_obj", "cli.encode_report"),
    ("fredpairs.cli", "json.dumps", "cli.dumps"),
)

SETUP_INSTANCE = -1  # instance id of spans recorded while generating inputs


class _ModuleProxy:
    """Stands in for a module inside one other module, with some names replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _entry_bits(rows) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in rows for x in row),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.instance_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.hook_ns = array("q")
        self.nested = array("b")  # 1 if a span of the same name was already open
        self.instance = SETUP_INSTANCE
        self._stack: list[int] = []
        self._open: list[int] = []
        self._undo: list = []
        self.matmul_madds = 0
        self.matmul_zero_madds = 0
        self.matmul_inputs: set[int] = set()
        self.rref_cells = 0
        self.rref_inputs: set[int] = set()
        self.max_entry_bits = 0

    # -- recording ----------------------------------------------------

    def wrap(self, span_name: str, fn, hook=None):
        if span_name not in self.names:
            self.names.append(span_name)
            self._open.append(0)
        sid = self.names.index(span_name)
        clock = time.perf_counter_ns
        stack, open_count = self._stack, self._open
        name, parent, instance_of = self.name, self.parent, self.instance_of
        start, end, hook_ns, nested = self.start, self.end, self.hook_ns, self.nested

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            instance_of.append(self.instance)
            nested.append(1 if open_count[sid] else 0)
            start.append(0)
            end.append(0)
            hook_ns.append(0)
            open_count[sid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_count[sid] -= 1
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, result)
                t2 = clock()
                end[idx] = t2
                hook_ns[idx] = t2 - t1
            return result

        return traced

    def _matmul_hook(self, args, result):
        a, b, m, k, n = args
        self.matmul_madds += m * k * n
        for t in range(k):
            zero_a = sum(1 for row in a if not row[t])
            zero_b = sum(1 for x in b[t] if not x)
            self.matmul_zero_madds += zero_a * n + zero_b * m - zero_a * zero_b
        self.matmul_inputs.add(hash((m, k, n, tuple(map(tuple, a)), tuple(map(tuple, b)))))
        self.max_entry_bits = max(
            self.max_entry_bits, _entry_bits(a), _entry_bits(b), _entry_bits(result)
        )

    def _rref_hook(self, args, result):
        rows, ncols = args
        self.rref_cells += len(rows) * ncols
        self.rref_inputs.add(hash((ncols, tuple(map(tuple, rows)))))
        self.max_entry_bits = max(self.max_entry_bits, _entry_bits(rows), _entry_bits(result[0]))

    # -- installing ---------------------------------------------------

    def install(self):
        """Replace every target with its traced wrapper, everywhere it is bound."""
        hooks = {"kernels.mat_mul": self._matmul_hook, "kernels.rref_rows": self._rref_hook}
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "fredpairs"]
        for module_name, attribute, span_name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = attribute.rpartition(".")
            if owner_name == "json":
                traced = self.wrap(span_name, module.json.dumps)
                self._set(module, "json", _ModuleProxy(module.json, dumps=traced))
            elif owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    traced = type(raw)(self.wrap(span_name, raw.__func__))
                else:
                    traced = self.wrap(span_name, raw)
                self._set(owner, attr, traced)
            else:
                original = getattr(module, attr)
                traced = self.wrap(span_name, original, hooks.get(span_name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, traced)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def summary(self) -> tuple[dict, dict, dict]:
        """Calls and outermost inclusive seconds per span name, self seconds per layer."""
        n = len(self.name)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        calls, inclusive, self_s = {}, {}, {}
        for i in range(n):
            span_name = self.names[self.name[i]]
            layer = span_name.split(".")[0]
            own = self.end[i] - self.start[i] - self.hook_ns[i]
            calls[span_name] = calls.get(span_name, 0) + 1
            if not self.nested[i]:
                inclusive[span_name] = inclusive.get(span_name, 0) + own / 1e9
            self_s[layer] = self_s.get(layer, 0) + (own - child_ns[i]) / 1e9
        return calls, inclusive, self_s

    def write(self, path):
        """Write every span: one JSON header line, then the raw columns."""
        columns = ("name", "parent", "instance_of", "start", "end", "hook_ns")
        header = {
            "names": self.names,
            "columns": {c: getattr(self, c).typecode for c in columns},
            "spans": len(self.name),
            "time_unit": "ns",
            "setup_instance": SETUP_INSTANCE,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(handle)


def read_spans(path) -> tuple[dict, dict]:
    """Read a file written by :meth:`Tracer.write`: (header, columns)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        columns = {}
        for column, typecode in header["columns"].items():
            values = array(typecode)
            values.fromfile(handle, header["spans"])
            columns[column] = values
    return header, columns


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """The per-layer metrics, name -> (value, unit)."""
    calls, inclusive, self_s = tracer.summary()

    def count(name):
        return calls.get(name, 0)

    def secs(*names):
        return sum(inclusive.get(name, 0.0) for name in names)

    matmul_calls, rref_calls = count("kernels.mat_mul"), count("kernels.rref_rows")
    return {
        "kernels.matmul_calls": (matmul_calls, "count"),
        "kernels.matmul_s": (secs("kernels.mat_mul"), "s"),
        "kernels.matmul_madds": (tracer.matmul_madds, "count"),
        "kernels.matmul_zero_operand_frac": (
            _share(tracer.matmul_zero_madds, tracer.matmul_madds), "frac"),
        "kernels.max_entry_bits": (tracer.max_entry_bits, "bits"),
        "kernels.rref_calls": (rref_calls, "count"),
        "kernels.rref_s": (secs("kernels.rref_rows"), "s"),
        "kernels.rref_cells": (tracer.rref_cells, "count"),
        "kernels.rref_repeat_frac": (1 - _share(len(tracer.rref_inputs), rref_calls), "frac"),
        "kernels.matmul_repeat_frac": (
            1 - _share(len(tracer.matmul_inputs), matmul_calls), "frac"),
        "pairs.pair_defects_calls": (count("pairs.pair_defects"), "count"),
        "pairs.induced_pair_calls": (count("pairs.induced_pair"), "count"),
        "pairs.build_extensions_calls": (count("pairs.build_extensions"), "count"),
        "chains.chain_defects_calls": (count("chains.chain_defects"), "count"),
        "chains.quotient_chain_calls": (count("chains.quotient_chain"), "count"),
        "chains.fold_to_pair_calls": (count("chains.fold_to_pair"), "count"),
        "subspaces.kernel_basis_calls": (count("subspaces.kernel_basis"), "count"),
        "subspaces.image_basis_calls": (count("subspaces.image_basis"), "count"),
        "subspaces.meet_calls": (count("subspaces.meet"), "count"),
        "subspaces.meet_s": (secs("subspaces.meet"), "s"),
        "subspaces.contains_calls": (count("subspaces.contains"), "count"),
        "subspaces.quotient_s": (secs("subspaces.quotient"), "s"),
        "subspaces.induced_map_s": (secs("subspaces.induced_map"), "s"),
        "subspaces.self_s": (self_s.get("subspaces", 0.0), "s"),
        "matrices.pinv_calls": (count("matrices.pinv"), "count"),
        "matrices.pinv_s": (secs("matrices.pinv"), "s"),
        "matrices.inverse_s": (secs("matrices.inverse"), "s"),
        "matrices.self_s": (self_s.get("matrices", 0.0), "s"),
        "pairs.verify_3_4_s": (secs("pairs.verify_3_4"), "s"),
        "pairs.verify_3_6_s": (secs("pairs.verify_3_6"), "s"),
        "chains.verify_2_3_s": (secs("chains.verify_2_3"), "s"),
        "chains.verify_4_2_s": (secs("chains.verify_4_2"), "s"),
        "chains.verify_4_4_s": (secs("chains.verify_4_4"), "s"),
        "pairs.self_s": (self_s.get("pairs", 0.0), "s"),
        "chains.self_s": (self_s.get("chains", 0.0), "s"),
        "generators.random_pair_s": (secs("generators.random_pair"), "s"),
        "generators.random_chain_s": (secs("generators.random_chain"), "s"),
        "cli.parse_s": (secs("cli.load_json", "cli.parse_pair", "cli.parse_chain"), "s"),
        "cli.encode_s": (
            secs("cli.encode_pair_defects", "cli.encode_chain_defects", "cli.encode_report",
                 "cli.dumps"), "s"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
