"""Spans around calls into the library's public functions, recorded from the
benchmark's side by replacing module attributes with timing wrappers.

A function is replaced in every loaded ``rootseq`` module that holds it, so
calls between modules (``gdist`` looked up in ``denom``, ``coarse_less`` in
``seqcalc``) and calls inside a module are all seen.  A span's self time is
its duration minus the time of the spans it encloses; its inclusive time is
counted for the outermost call of a name only, so recursion is not counted
twice.
"""

from __future__ import annotations

import functools
import sys
import time


class Stat:
    __slots__ = ("calls", "items", "s", "self_s", "active", "keys")

    def __init__(self):
        self.calls = 0
        self.items = 0  # generator items yielded, or results emitted
        self.s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.keys = set()


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._children = [0.0]  # child-span time of each open span

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _enter(self, st: Stat) -> float:
        self._children.append(0.0)
        st.active += 1
        return time.perf_counter()

    def _leave(self, st: Stat, t0: float) -> None:
        dur = time.perf_counter() - t0
        child = self._children.pop()
        self._children[-1] += dur
        st.self_s += dur - child
        st.active -= 1
        if not st.active:
            st.s += dur

    def wrap(self, name, fn, on_call=None, on_result=None):
        st = self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            if on_call is not None:
                on_call(st, args)
            t0 = self._enter(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(st, t0)
            if on_result is not None:
                on_result(st, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Each step of the generator is a span; time spent by the consumer
        between steps is not."""
        st = self.stat(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st.calls += 1
            gen = fn(*args, **kwargs)
            while True:
                t0 = self._enter(st)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(st, t0)
                st.items += 1
                yield item

        return traced


def replace_everywhere(original, replacement) -> int:
    """Rebind every ``rootseq`` module global that is ``original``."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if not (name == "rootseq" or name.startswith("rootseq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    if not n:
        raise LookupError(f"{original!r} is not referenced by any rootseq module")
    return n


def _count_results(st, result):
    st.items += len(result)


def _distinct_pair(st, args):
    cls, i, j = args[:3]
    st.keys.add((id(cls), min(i, j), max(i, j)))


def install(tracer: Tracer) -> None:
    """Wrap the library's public functions; the modules must be imported."""
    from rootseq import arquiver, denom, orders, seqcalc, words

    for mod, fn, name, hooks in (
        (arquiver, "build_ar_quiver", "arquiver.build", {}),
        (words, "roots_of_word", "words.roots_of_word", {}),
        (orders, "bilex_less", "orders.bilex_less", {}),
        (orders, "coarse_less", "orders.coarse_less", {}),
        (seqcalc, "is_simple_pair", "seqcalc.is_simple_pair", {"on_call": _distinct_pair}),
        (seqcalc, "is_simple", "seqcalc.is_simple", {}),
        (seqcalc, "sequences_of_weight", "seqcalc.sequences_of_weight",
         {"on_result": _count_results}),
        (seqcalc, "pairs_of_weight", "seqcalc.pairs_of_weight", {}),
        (seqcalc, "gdist", "seqcalc.gdist", {}),
        (seqcalc, "dist", "seqcalc.dist", {}),
        (seqcalc, "radius", "seqcalc.radius", {}),
        (denom, "conjecture_table", "denom.conjecture_table", {}),
    ):
        original = getattr(mod, fn)
        replace_everywhere(original, tracer.wrap(name, original, **hooks))
    original = denom.comparable_pairs
    replace_everywhere(original, tracer.wrap_generator("denom.comparable_pairs", original))
    cc = words.CommClass
    cc.__init__ = tracer.wrap("words.commclass", cc.__init__)
    cc.linear_extensions = tracer.wrap_generator(
        "words.linear_extensions", cc.linear_extensions
    )


def metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, named as in BENCHMARK.json (without the
    overhead, which needs an untraced run)."""
    s = tracer.stat
    return {
        "arquiver.build.calls": s("arquiver.build").calls,
        "arquiver.build.s": s("arquiver.build").s,
        "words.commclass.calls": s("words.commclass").calls,
        "words.commclass.s": s("words.commclass").s,
        "words.linear_extensions.members": s("words.linear_extensions").items,
        "words.linear_extensions.s": s("words.linear_extensions").s,
        "words.roots_of_word.calls": s("words.roots_of_word").calls,
        "words.roots_of_word.s": s("words.roots_of_word").s,
        "orders.bilex_less.calls": s("orders.bilex_less").calls,
        "orders.bilex_less.self_s": s("orders.bilex_less").self_s,
        "orders.coarse_less.calls": s("orders.coarse_less").calls,
        "orders.coarse_less.s": s("orders.coarse_less").s,
        "seqcalc.is_simple_pair.calls": s("seqcalc.is_simple_pair").calls,
        "seqcalc.is_simple_pair.distinct": len(s("seqcalc.is_simple_pair").keys),
        "seqcalc.is_simple_pair.self_s": s("seqcalc.is_simple_pair").self_s,
        "seqcalc.is_simple.calls": s("seqcalc.is_simple").calls,
        "seqcalc.is_simple.self_s": s("seqcalc.is_simple").self_s,
        "seqcalc.sequences_of_weight.calls": s("seqcalc.sequences_of_weight").calls,
        "seqcalc.sequences_of_weight.emitted": s("seqcalc.sequences_of_weight").items,
        "seqcalc.sequences_of_weight.self_s": s("seqcalc.sequences_of_weight").self_s,
        "seqcalc.pairs_of_weight.calls": s("seqcalc.pairs_of_weight").calls,
        "seqcalc.pairs_of_weight.self_s": s("seqcalc.pairs_of_weight").self_s,
        "seqcalc.gdist.calls": s("seqcalc.gdist").calls,
        "seqcalc.gdist.self_s": s("seqcalc.gdist").self_s,
        "seqcalc.dist.calls": s("seqcalc.dist").calls,
        "seqcalc.dist.self_s": s("seqcalc.dist").self_s,
        "seqcalc.radius.calls": s("seqcalc.radius").calls,
        "seqcalc.radius.self_s": s("seqcalc.radius").self_s,
        "denom.conjecture_table.calls": s("denom.conjecture_table").calls,
        "denom.conjecture_table.self_s": s("denom.conjecture_table").self_s,
        "denom.comparable_pairs.s": s("denom.comparable_pairs").s,
    }
