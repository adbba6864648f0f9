"""Memoization for the exact polyhedral solvers.

The compilation pipeline re-solves *identical* (I)LPs and projections many
times: statements of an elementwise chain pose the same bounds under
other names, the scheduler poses the master schedule's band rows again
for the split variant's, the tuner compiles dozens of candidates per
kernel, and a warm process compiles kernels it compiled before.  Every
solve is a pure function of its constraint system, so a memo table is
sound -- provided "identical" is judged by what the solvers can see.
(What one compile can avoid asking twice it does not ask: a dependence
keeps the problem its emptiness was decided on, and its distance bounds,
for every later question -- see :mod:`repro.sched.deps`.)

**The canonical form.**  The solvers never look *at* a variable name, only
at how names compare: Fourier-Motzkin eliminates ``sorted(...)`` names,
the ILP lays its columns out over ``sorted(...)`` names, redundancy
removal keys on ``sorted(coeffs.items())``.  Everything else they read is
positional -- the order of the constraints, the order of each
expression's coefficient dict (the presolve substitutes the *first*
unit-coefficient variable), the numbers.  A key therefore replaces every
variable by its rank in the sorted list of the system's names and keeps
the rest as it is (:class:`RankSpace`): two systems get one key exactly
when an *order-preserving* renaming turns one into the other, and on such
a pair a solver performs the same steps on the same numbers.  Results are
stored in rank space too -- plain tuples, no names -- and rebuilt under
the caller's names on a hit, constraint by constraint and coefficient by
coefficient in the stored order.  A hit is thus what the uncached solve
would have returned, down to list order, coefficient-dict order and
assignment-key order, and cached and uncached compilations stay
byte-for-byte identical (the staged-pipeline equivalence tests rely on
it).  ``sg2_s0_ax0`` and ``sg2_m2_d0`` no longer make two problems of
one.

**A miss works in the same space.**  A key's rows are integer
coefficient rows -- what a constraint is in isl -- so
:func:`repro.poly.fm.project_onto` eliminates on them directly and
decodes its result once: a miss decodes the very rows a hit decodes.  An
:class:`~repro.poly.ilp.IlpProblem` presolves, folds and solves a miss on
its key's rows and objective, and a miss decodes its ranked assignment
exactly as a hit does.  And a system is ranked once however many
questions it is asked: an ``IlpProblem`` keeps its space beside its
presolve, and :func:`~repro.tiling.reverse.affine_extent_bounds` ranks a
system once for every dimension it bounds and solves a miss on those
rows.  (A live-out statement with a tile window asks no table at all:
:attr:`repro.fusion.posttile.TiledGroup.windows`.)

**Why not full alpha-renaming** (number the variables by first
occurrence, as a lambda-term hash would)?  It identifies more systems --
any injective renaming, not just the monotone ones -- but a renaming that
permutes the sort order changes the elimination order and the tableau
columns, and with them which of several equally good vertices, or which
of several equivalent projections, comes out.  The cached answer would
still be *an* answer, not *the* answer of the uncached run, and schedules
and program dumps would depend on what was compiled earlier in the
process.  Order-permuting renamings simply miss here.

Three tables use the form: :data:`ILP_CACHE`
(:meth:`~repro.poly.ilp.IlpProblem.minimize` and ``batch_minimize``, one
entry per system x objective whichever of the two posed it),
:data:`FM_CACHE` (:func:`repro.poly.fm.project_onto`, key = rows +
keep-mask) and :data:`EXTENT_CACHE`
(:func:`repro.tiling.reverse.affine_extent_bounds`, an integer per system x
dimension x box).  An extent miss projects its own rows without asking
``FM_CACHE``, so that table serves the named projections only -- the
reverse strategy's producer relations, dependence distances,
the verifier's intervals and AST loop bounds.  No benchmark workload
hits it, but the verifier does: ``verify_result`` on Table 1's subgraph 2
hits it 180 times in 192 queries (a cold build of subgraph 1 asks it 8
times).

**The footprint table** (:data:`FOOTPRINT_CACHE`) is keyed before any
map is built.  It and the extent table answer the statements without a
tile window -- fused producers, on their projected relations: idle on
every benchmark compile row but subgraph 5 (extent 8 hits / 4 misses,
footprint 1 / 1), they pay on Table 1's subgraph 1 (on a 2-core host a
cold build took 5% longer with the extent table off, 14% with the
footprint table off) and on resnet50's plan (222 / 150 and 84 / 62).
Its key (:func:`repro.tiling.reverse.footprint_key`) is the instance relation
with every variable replaced by its *position* among ``tile dims +
iteration dims``, the index expressions over iteration-dim positions,
the tensor's shape (the clip) and the tile counts (the box).  No sort
order needs recording because none exists: a miss is solved on the
key's own integer rows (:func:`repro.tiling.reverse.footprint_bounds`,
no map, none of the tables above), so the solve is a
function of the key alone and a hit is the fresh solve.  Entries are
tuples; every answer is handed out as a new list.

Caches are process-global.  Worker processes of the parallel auto-tuner
each grow their own copy (the cache is warm within a worker, cold across
them) -- no cross-process synchronisation is needed or attempted.  Worker
*threads* of the compile service share one copy, so every table and its
counters -- ``solver.<table>.hits`` / ``.misses`` and the ilp table's
``solver.ilp.pivots`` / ``.rows`` in the process-wide counter table of
:mod:`repro.core.context` -- are guarded by ``context.LOCK``; the stored
tuples are immutable, which makes sharing the values themselves safe.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.core.context import COUNTERS, LOCK, reset_counters
from repro.poly.affine import AffineExpr, Constraint

__all__ = [
    "SolveCache",
    "RankSpace",
    "split_rows",
    "MISS",
    "ILP_CACHE",
    "FM_CACHE",
    "EXTENT_CACHE",
    "FOOTPRINT_CACHE",
    "solver_cache_stats",
    "clear_solver_caches",
    "set_solver_cache_enabled",
]


#: What :meth:`SolveCache.lookup` returns for an absent key (``None`` is a
#: legitimate cached value: "no finite bound").
MISS = object()


class RankSpace:
    """The variables of one constraint system, replaced by their sorted rank.

    ``names[i]`` is the variable of rank ``i``; ``rows`` is the name-free
    image of the constraints -- all their variables as one flat rank tuple
    (constraint order, coefficient-dict order) beside the per-constraint
    number tuples, whose lengths say where each constraint ends.
    """

    __slots__ = ("constraints", "names", "rank", "rows")

    def __init__(
        self, constraints: Sequence[Constraint], extra_names: Iterable[str] = ()
    ):
        self.constraints = constraints
        shapes = [c.shape() for c in constraints]
        name_rows = [names for names, _ in shapes]
        self.names: List[str] = sorted(set(chain(extra_names, *name_rows)))
        self.rank: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.rows: Hashable = (
            tuple(map(self.rank.__getitem__, chain.from_iterable(name_rows))),
            tuple([numbers for _, numbers in shapes]),
        )

    def with_expr(self, expr: AffineExpr) -> Tuple["RankSpace", Hashable]:
        """Key of the system plus one bare expression (an objective).

        An expression over variables the constraints never mention widens
        the ranking, so the space to decode under is returned with the key.
        """
        names, numbers = expr.shape()
        space = self
        if not self.rank.keys() >= set(names):
            space = RankSpace(self.constraints, names)
        return space, (space.rows, tuple(map(space.rank.__getitem__, names)), numbers)

    def decode(self, rows: Tuple) -> List[Constraint]:
        """Rebuild constraints stored in rank space, one ``(ranks,
        numbers)`` pair each as :func:`split_rows` gives them, under this
        space's names."""
        name = self.names.__getitem__
        out = []
        for ranks, numbers in rows:
            names = tuple(map(name, ranks))
            *coeffs, const, is_equality = numbers
            expr = AffineExpr._of(dict(zip(names, coeffs)), const)
            out.append(Constraint._of(expr, is_equality, (names, numbers)))
        return out


def split_rows(rows: Hashable) -> List[Tuple[Tuple[int, ...], Tuple]]:
    """:attr:`RankSpace.rows` one constraint at a time: its ranks
    (coefficient-dict order) and its numbers (as in
    :meth:`Constraint.shape`)."""
    flat, shapes = rows
    out = []
    start = 0
    for numbers in shapes:
        end = start + len(numbers) - 2
        out.append((flat[start:end], numbers))
        start = end
    return out


class SolveCache:
    """A bounded FIFO memo table, counted as ``solver.<name>.hits`` /
    ``solver.<name>.misses``.

    Polyhedral problems in this code base are small but numerous; the
    bound exists only to keep pathological workloads from growing the
    table without limit (eviction is oldest-first, which is close enough
    to LRU for the highly repetitive solve streams seen here).

    ``work`` names further counters the solver behind the table bumps
    (``solver.<name>.<work>``): what its misses cost, reported and reset
    with them.
    """

    __slots__ = (
        "name", "maxsize", "enabled", "work", "hit_label", "miss_label", "_data"
    )

    def __init__(self, name: str, maxsize: int = 200_000, work: Sequence[str] = ()):
        self.name = name
        self.maxsize = maxsize
        self.enabled = True
        self.work = tuple(work)
        self.hit_label = f"solver.{name}.hits"  # built once, not per lookup
        self.miss_label = f"solver.{name}.misses"
        self._data: Dict[Hashable, Any] = {}

    def lookup(self, key: Hashable) -> Any:
        """Return the cached value or :data:`MISS` (and count the outcome)."""
        if not self.enabled:
            return MISS
        with LOCK:
            value = self._data.get(key, MISS)
            if value is MISS:
                COUNTERS[self.miss_label] += 1
            else:
                COUNTERS[self.hit_label] += 1
            return value

    def store(self, key: Hashable, value: Any) -> None:
        """Insert one entry, evicting the oldest when full."""
        if not self.enabled:
            return
        with LOCK:
            if len(self._data) >= self.maxsize:
                self._data.pop(next(iter(self._data)))
            self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)


#: Memo table for :meth:`repro.poly.ilp.IlpProblem.minimize`; beside it, the
#: simplex pivots taken and tableau rows laid out, summed over its solves.
ILP_CACHE = SolveCache("ilp", work=("pivots", "rows"))

#: Memo table for :func:`repro.poly.fm.project_onto`.
FM_CACHE = SolveCache("fm")

#: Memo table for :func:`repro.tiling.reverse.affine_extent_bounds`.
EXTENT_CACHE = SolveCache("extent")

#: Memo table for :func:`repro.storage.promote.footprint_extents`.
FOOTPRINT_CACHE = SolveCache("footprint")

_ALL = (ILP_CACHE, FM_CACHE, EXTENT_CACHE, FOOTPRINT_CACHE)


def solver_cache_stats() -> Dict[str, Dict[str, float]]:
    """Hit/miss/entry counts (plus hit rate and ``work``) for every solver
    cache, keyed by name.  ``reset_counters("solver.")`` zeroes the counts
    and keeps the memoized entries."""
    out: Dict[str, Dict[str, float]] = {}
    with LOCK:
        for c in _ALL:
            hits = COUNTERS.get(c.hit_label, 0)
            misses = COUNTERS.get(c.miss_label, 0)
            total = hits + misses
            row: Dict[str, float] = {
                "hits": hits,
                "misses": misses,
                "entries": len(c._data),
                "hit_rate": (hits / total) if total else 0.0,
            }
            for work in c.work:
                row[work] = COUNTERS.get(f"solver.{c.name}.{work}", 0)
            out[c.name] = row
    return out


def clear_solver_caches() -> None:
    """Empty every solver cache and reset its counters."""
    with LOCK:
        for c in _ALL:
            c._data.clear()
    reset_counters("solver.")


def set_solver_cache_enabled(enabled: bool) -> None:
    """Globally enable or disable solver memoization.

    A test oracle, not a user switch: the equivalence tests compare
    cached results against this uncached path.
    """
    for c in _ALL:
        c.enabled = enabled
