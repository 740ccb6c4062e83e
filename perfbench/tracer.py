"""Spans and counts at the public functions of each cmonrw layer.

The tracer replaces each listed function wherever the package bound it, so
calls through `from .x import f` and recursive calls through module
globals are both seen. Spans stay in memory and are written out at the end;
a span's self time is its duration minus the time its direct children
cover. Nothing here imports cmonrw: the caller passes the loaded modules in.
"""

from __future__ import annotations

import time

# Layer -> the public functions traced in it. Layers are cmonrw's modules;
# corpus only generates test inputs and is not one.
LAYER_FUNCTIONS = {
    "cli": ("run",),
    "sigterm": ("parse_term",),
    "translate": ("eval_term",),
    "cospan": ("compose", "tensor", "cospan_key"),
    "hypergraph": ("canonical_form", "find_homomorphisms"),
    "dpo": (
        "rewrite_all",
        "enumerate_convex_matches",
        "boundary_complement",
        "complement_is_valid",
        "apply_rewrite",
        "normalize",
    ),
    "oracle": ("axiom_closure", "enumerate_rewrites_bruteforce"),
    "decompose": ("factorise_into_levels", "readback_term"),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in LAYER_FUNCTIONS.items() for f in fs)

# Counts and ratios measured at the same boundaries, with their units.
DERIVED = {
    "hypergraph.find_homomorphisms.results": "count",
    "dpo.enumerate_convex_matches.convex_ratio": "ratio",
    "dpo.complement_is_valid.accept_ratio": "ratio",
    "dpo.rewrite_all.dedup_ratio": "ratio",
    "dpo.normalize.states": "count",
    "cospan.cospan_key.repeat_ratio": "ratio",
    "oracle.axiom_closure.members": "count",
    "oracle.axiom_closure.truncated": "count",
    "oracle.enumerate_rewrites_bruteforce.results": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


class Tracer:
    """Records one span per call of a traced function while active."""

    def __init__(self) -> None:
        self.active = False
        self.request = -1
        self.fn: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.req: list[int] = []
        self._stack: list[int] = []
        self._sums = dict.fromkeys(
            (
                "homs",
                "homs_in_matching",
                "matches",
                "accepted",
                "steps",
                "applies_in_rewrite_all",
                "normalize_states",
                "key_repeats",
                "members",
                "truncated",
                "bruteforce_results",
            ),
            0,
        )
        self._keyed: dict[int, object] = {}
        self.bindings: dict[str, int] = {}

    def install(self, modules: dict) -> None:
        """Wrap every listed function in every cmonrw module bound to it.

        modules maps module name ("cmonrw", "cmonrw.dpo", ...) to module.
        Raises LookupError when a listed function no longer exists."""
        for index, name in enumerate(FUNCTIONS):
            layer, fn_name = name.split(".")
            home = modules.get(f"cmonrw.{layer}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                raise LookupError(f"traced function cmonrw.{name} not found")
            wrapper = self._wrap(index, original)
            self.bindings[name] = 0
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self.bindings[name] += 1

    def begin_request(self, request: int) -> None:
        self.request = request
        self._keyed = {}

    def _wrap(self, index: int, fn):
        post = getattr(self, "_post_" + FUNCTIONS[index].replace(".", "_"), None)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.fn)
            parent = self._stack[-1] if self._stack else -1
            self.fn.append(index)
            self.parent.append(parent)
            self.req.append(self.request)
            self.end.append(0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(parent, args, result)
                return result
            finally:
                self.end[sid] = clock()
                self._stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _parent_is(self, parent: int, name: str) -> bool:
        return parent >= 0 and FUNCTIONS[self.fn[parent]] == name

    # ------------------------------------------------ counts at boundaries

    def _post_hypergraph_find_homomorphisms(self, parent, args, result):
        self._sums["homs"] += len(result)
        if self._parent_is(parent, "dpo.enumerate_convex_matches"):
            self._sums["homs_in_matching"] += len(result)

    def _post_dpo_enumerate_convex_matches(self, parent, args, result):
        self._sums["matches"] += len(result)

    def _post_dpo_complement_is_valid(self, parent, args, result):
        self._sums["accepted"] += bool(result)

    def _post_dpo_rewrite_all(self, parent, args, result):
        self._sums["steps"] += len(result)
        if self._parent_is(parent, "dpo.normalize"):
            self._sums["normalize_states"] += 1

    def _post_dpo_apply_rewrite(self, parent, args, result):
        if self._parent_is(parent, "dpo.rewrite_all"):
            self._sums["applies_in_rewrite_all"] += 1

    def _post_cospan_cospan_key(self, parent, args, result):
        # keyed objects stay referenced until the request ends, so an id
        # cannot be reused by a new object within the request
        c = args[0]
        if id(c) in self._keyed:
            self._sums["key_repeats"] += 1
        else:
            self._keyed[id(c)] = c

    def _post_oracle_axiom_closure(self, parent, args, result):
        self._sums["members"] += len(result.members)
        self._sums["truncated"] += bool(result.truncated)

    def _post_oracle_enumerate_rewrites_bruteforce(self, parent, args, result):
        self._sums["bruteforce_results"] += len(result)

    # ------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """calls and self time per function, then the derived counts."""
        calls = [0] * len(FUNCTIONS)
        self_ns = [0] * len(FUNCTIONS)
        child_ns = [0] * len(self.fn)
        for sid in range(len(self.fn) - 1, -1, -1):
            dur = self.end[sid] - self.start[sid]
            calls[self.fn[sid]] += 1
            self_ns[self.fn[sid]] += dur - child_ns[sid]
            if self.parent[sid] >= 0:
                child_ns[self.parent[sid]] += dur
        out: dict[str, float] = {}
        for i, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_ns[i] / 1e9
        s = self._sums

        def ratio(num, den):
            return num / den if den else 0.0

        by_name = dict(zip(FUNCTIONS, calls))
        out["hypergraph.find_homomorphisms.results"] = s["homs"]
        out["dpo.enumerate_convex_matches.convex_ratio"] = ratio(
            s["matches"], s["homs_in_matching"]
        )
        out["dpo.complement_is_valid.accept_ratio"] = ratio(
            s["accepted"], by_name["dpo.complement_is_valid"]
        )
        out["dpo.rewrite_all.dedup_ratio"] = ratio(
            s["steps"], s["applies_in_rewrite_all"]
        )
        out["dpo.normalize.states"] = s["normalize_states"]
        out["cospan.cospan_key.repeat_ratio"] = ratio(
            s["key_repeats"], by_name["cospan.cospan_key"]
        )
        out["oracle.axiom_closure.members"] = s["members"]
        out["oracle.axiom_closure.truncated"] = s["truncated"]
        out["oracle.enumerate_rewrites_bruteforce.results"] = s[
            "bruteforce_results"
        ]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\trequest\tfunction\tstart_ns\tend_ns\n")
            for sid in range(len(self.fn)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.req[sid]}\t"
                    f"{FUNCTIONS[self.fn[sid]]}\t{self.start[sid]}\t"
                    f"{self.end[sid]}\n"
                )
