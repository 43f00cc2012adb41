"""In-memory span tracer that wraps integra's public functions from outside.

Each target is wrapped at every attribute of every loaded ``integra`` module
that is bound to it (for example both ``integra.classify.is_integral_cayley``
and ``integra.verify.is_integral_cayley``), and methods are wrapped on their
class. A span is [layer, start, end, parent, note]; self time is a span's
duration minus the durations of its direct children. A target that the
program no longer has is reported as absent.
"""

from __future__ import annotations

import sys
import time

_clock = time.perf_counter


def _lifted(args, result):
    return result[1].index > 1


def _positive(args, result):
    return result > 0


def _sets_checked(args, result):
    return result.sets_checked


def _claim_id(args, result):
    return args[0] if args else None


# (module, attribute, layer, note). The note function turns a call's
# arguments and result into the value kept on its span.
TARGETS = (
    ("groups", "construct", "groups.construct", None),
    ("groups", "from_table", "groups.from_table", None),
    ("groups", "closure", "groups.closure", None),
    ("groups", "recognize_named", "groups.recognize", None),
    ("groups", "has_subgroup_isomorphic", "groups.recognize", None),
    ("symsets", "enumerate_symmetric_sets", "symsets.enumerate", None),
    ("classify", "in_A_k", "classify.scan", _sets_checked),
    ("classify", "in_G_k", "classify.scan", _sets_checked),
    ("classify", "a2_structural", "classify.structural", None),
    ("classify", "a3_structural", "classify.structural", None),
    ("classify", "g3_structural", "classify.structural", None),
    ("classify", "nilpotent_g3_case", "classify.structural", None),
    ("spectra", "is_integral_cayley", "spectra.verdict", _lifted),
    ("spectra", "cayley_adjacency", "spectra.adjacency", None),
    ("spectra", "integral_spectrum", "spectra.integral_spectrum", None),
    ("spectra", "eigen_multiplicity", "spectra.multiplicity", _positive),
    ("spectra", "char_poly", "spectra.char_poly", None),
    ("polys", "IntPolynomial.divmod_by", "polys.divmod", None),
    ("polys", "IntPolynomial.__pow__", "polys.pow", None),
    ("verify", "run_claim", "verify.claim", _claim_id),
    ("cli", "main", "cli.main", None),
)

# Layers whose functions are generators: each resumption is one span.
_GENERATOR_LAYERS = {"symsets.enumerate"}

CLAIM_IDS = tuple(f"C{i}" for i in range(1, 18))


class Tracer:
    """Installs wrappers, records spans, and restores the program on remove()."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- wrappers ----------------------------------------------------------

    def _call_wrapper(self, fn, layer, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, _clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = _clock()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def _generator_wrapper(self, fn, layer):
        spans, stack = self.spans, self._stack

        def resume(it):
            while True:
                idx = len(spans)
                span = [layer, _clock(), 0.0, stack[-1] if stack else -1, 0]
                spans.append(span)
                stack.append(idx)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    span[2] = _clock()
                span[4] = 1
                yield item

        def traced(*args, **kwargs):
            return resume(fn(*args, **kwargs))

        return traced

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1] if "." in name else "": mod
            for name, mod in list(sys.modules.items())
            if name == "integra" or name.startswith("integra.")
        }
        self.absent = []
        for mod_name, attr, layer, note in TARGETS:
            mod = modules.get(mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if layer in _GENERATOR_LAYERS:
                wrapper = self._generator_wrapper(original, layer)
            else:
                wrapper = self._call_wrapper(original, layer, note)
            if owner_name:
                self._patch(owner, member, original, wrapper)
                continue
            for other in modules.values():
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def remove(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- report ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one CSV line: layer,start,end,parent,note."""
        with open(path, "w") as fh:
            fh.write("layer,start,end,parent,note\n")
            for layer, start, end, parent, note in self.spans:
                fh.write(f"{layer},{start:.9f},{end:.9f},{parent},{'' if note is None else note}\n")

    def layer_report(self, rounds: int) -> dict[str, float]:
        """Per-layer figures per traced round: self seconds, calls and counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, _note in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        claim_s = {cid: 0.0 for cid in CLAIM_IDS}
        sets_checked = scan_verdicts = lifted = hits = yielded = 0
        for i, (layer, start, end, parent, note) in enumerate(spans):
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[i]
            calls[layer] = calls.get(layer, 0) + 1
            if layer == "verify.claim" and note in claim_s:
                claim_s[note] += end - start
            elif layer == "classify.scan" and note is not None:
                sets_checked += note
            elif layer == "spectra.verdict":
                lifted += bool(note)
                if self._under(i, "classify.scan"):
                    scan_verdicts += 1
            elif layer == "spectra.multiplicity":
                hits += bool(note)
            elif layer == "symsets.enumerate":
                yielded += note
        per = 1.0 / rounds

        def s(layer):
            return self_s.get(layer, 0.0) * per

        def c(layer):
            return calls.get(layer, 0) * per

        out = {
            "groups.construct_s": s("groups.construct"),
            "groups.construct_calls": c("groups.construct"),
            "groups.from_table_s": s("groups.from_table"),
            "groups.from_table_calls": c("groups.from_table"),
            "groups.closure_s": s("groups.closure"),
            "groups.closure_calls": c("groups.closure"),
            "groups.recognize_s": s("groups.recognize"),
            "groups.recognize_calls": c("groups.recognize"),
            "symsets.enumerate_s": s("symsets.enumerate"),
            "symsets.sets_enumerated": yielded * per,
            "classify.scan_s": s("classify.scan"),
            "classify.scan_calls": c("classify.scan"),
            "classify.sets_checked": sets_checked * per,
            "classify.scan_verdict_calls": scan_verdicts * per,
            "classify.verdicts_per_set": scan_verdicts / sets_checked if sets_checked else 0.0,
            "classify.structural_s": s("classify.structural"),
            "classify.structural_calls": c("classify.structural"),
            "spectra.verdict_s": s("spectra.verdict"),
            "spectra.verdict_calls": c("spectra.verdict"),
            "spectra.lifted_calls": lifted * per,
            "spectra.adjacency_s": s("spectra.adjacency"),
            "spectra.adjacency_calls": c("spectra.adjacency"),
            "spectra.integral_spectrum_s": s("spectra.integral_spectrum"),
            "spectra.integral_spectrum_calls": c("spectra.integral_spectrum"),
            "spectra.multiplicity_s": s("spectra.multiplicity"),
            "spectra.multiplicity_calls": c("spectra.multiplicity"),
            "spectra.multiplicity_hits": hits * per,
            "spectra.multiplicity_hit_ratio": hits / calls["spectra.multiplicity"]
            if calls.get("spectra.multiplicity")
            else 0.0,
            "spectra.char_poly_s": s("spectra.char_poly"),
            "spectra.char_poly_calls": c("spectra.char_poly"),
            "polys.divmod_s": s("polys.divmod"),
            "polys.divmod_calls": c("polys.divmod"),
            "polys.pow_s": s("polys.pow"),
            "polys.pow_calls": c("polys.pow"),
        }
        for cid in CLAIM_IDS:
            out[f"verify.{cid}_s"] = claim_s[cid] * per
        out["cli.main_s"] = s("cli.main")
        out["cli.calls"] = c("cli.main")
        out["trace.spans"] = len(spans) * per
        return out

    def _under(self, idx: int, layer: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False
