"""Linear-optical elements applied exactly to Fock states.

A k-mode element is a k x k unitary acting on the creation operators of the
modes it touches: a_j^dag -> sum_k U[k, j] a_k^dag, where column j is the
input mode and row k the output mode. With the amplitude vector of a single
photon ordered like the listed modes, this makes the one-photon sector
transform as c -> U c, so the logical-gate picture and the Fock picture
agree by construction.

``apply_mode_unitary`` takes one of three paths, chosen by the unitary, and
each gives output keys, their order and every amplitude bit equal to the
direct creation-operator expansion's: x = amp / sqrt(prod n!) grown one
operator at a time, mode 0's first, each monomial's coefficient summed as
0j + ... over the nonzero entries of the operator's column, then each output
times sqrt(prod q!), scattered in input-ket order.

With no zero entry, which products each coefficient sums, in which order,
depends on the operators' modes alone. So a unitary with no zero entry runs
that growth as straight-line code, replayed once on monomials (``_growth``)
and compiled once (``_compiled``), with one writer per kind of kernel:
- on 2 modes (every default ``bs``, the gates' splitters), one kernel per
  local occupation (a, b) writes each output (x, y) by position into one list
  of its ket, key[p] = x and key[q] = y for the listed modes p, q, and adds it
  at tuple(key); a ket with no photon on the pair is its own output, 0j + amp,
  as no other ket has its rest and none on it;
- on k >= 3 modes, one kernel per (k, N), N the photons a ket holds on the
  listed modes, adds output i to acc[i] += v_i * s_i. The kets of one rest and
  one N all reach every monomial of degree N, so they sum into one list in ket
  order, written out after the last ket: the loop's sums and its order of
  first appearance.

Each kind of kernel has a cap, one constant: ``KERNEL_PHOTONS`` (8) photons on
a pair, as a pair kernel's text grows as (a + b)**2 (at 64 photons its compile
peaks at 8.6 MB), and ``KERNEL_TERMS`` (840) growth terms, k C(N + k - 1, k),
for a dense one ((6, 4) holds 504, compiles in 4 ms and peaks near 1.3 MB under
``tracemalloc``). A state with a ket past its cap is expanded directly, whole,
and so is every other element (k = 1, or a unitary with a zero entry): the
loop itself, on occupation tuples, each output's sqrt(prod q!) taken once.

If some sqrt(prod n!) passes the float range, the expansion raises a one-line
``ValueError``. That needs more than 170 photons on the listed modes, and
from 171 photons it always happens for a 2-mode unitary with no zero entry,
whose outputs include (171, 0); a sparse element such as a phase may still
expand 171 photons split as (86, 85).

Before a unitary on 3 or more modes is expanded, the outputs it could give
are bounded by integer work, C(N + k - 1, k - 1) per ket with N photons on
the k listed modes; a bound above ``MAX_EXPANSION_TERMS`` raises a one-line
``ValueError`` at once.

Setup that depends only on the element, the listed modes or a ket's local
occupation is done once, not per call or per branch. ``ModeUnitary`` checks
its matrix and works out its columns as Python complex numbers, and which
path it takes, at construction, without numpy; its read-only numpy
``matrix`` is built on first read. The listed modes' getters come from
``fock.layout``; ``_pair_plan`` memoizes the closed form's sqrt(a! b!) and
kernel per local occupation (a, b), 256 entries, and ``_dense_kernel`` each
dense kernel and its monomials per (k, N), 64 entries.
"""

from __future__ import annotations

import collections
import functools
import math
from typing import Callable, Iterable, Sequence

from .fock import FockState, as_amplitude, layout

UNITARY_TOL = 1e-12
# Most output terms a unitary on 3 or more modes may expand to, summed over
# the input kets. An output term holds about 200 bytes, so the limit keeps an
# expansion near 220 MB.
MAX_EXPANSION_TERMS = 2**20
# Most photons on a pair whose closed form runs as generated straight-line code.
KERNEL_PHOTONS = 8
# Most growth terms, k C(N + k - 1, k) for N photons on k >= 3 modes, of a generated dense kernel.
KERNEL_TERMS = 840


class ModeUnitary:
    """Unitary matrix of a linear-optical element on ``dim`` modes.

    It is checked in plain Python, each entry read as ``complex(z)``, the bits
    ``np.array(matrix, dtype=complex)`` gives it. ``matrix`` is a read-only
    numpy copy, built on first read and kept, so the caller's array stays
    writable and the columns and closed-form test cannot drift from it.
    """

    def __init__(self, matrix) -> None:
        try:  # a square sequence of rows of numbers
            n = len(matrix)
            if not n or any(len(row) != n for row in matrix):
                raise TypeError
            rows = [[_entry(z) for z in row] for row in matrix]
        except (TypeError, ValueError):  # numpy reads anything else, for its first non-number or its shape
            import numpy as np
            entries = np.array(matrix, dtype=object)
            for z in entries.flat:
                _entry(z)
            raise ValueError(f"expected a square matrix, got shape {entries.shape}") from None
        # U U^H - I (rows are distinct lists: ``a is b`` on the diagonal), then its largest
        # modulus, nan if any is nan as np.max gives it; hypot overflows to inf.
        gram = (sum(x * y.conjugate() for x, y in zip(a, b)) - (a is b) for a in rows for b in rows)
        defect = max((math.hypot(g.real, g.imag) for g in gram), key=lambda d: (d != d, d))
        if not defect <= UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        self._columns = [list(col) for col in zip(*rows)]  # column j of U
        dense = all(map(all, self._columns))  # no zero entry
        self._closed_form, self._dense = dense and n == 2, dense and n >= 3

    @functools.cached_property
    def matrix(self):
        import numpy as np
        m = np.array(list(zip(*self._columns)), dtype=complex)
        m.flags.writeable = False
        return m

    @property
    def dim(self) -> int:
        return len(self._columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModeUnitary({self.matrix.tolist()})"


def _entry(z) -> complex:
    as_amplitude(z, "unitary entry")  # complex() alone would parse a string
    return complex(z)  # not as_amplitude's value, which drops -1j's -0.0 real part


def hadamard_bs() -> ModeUnitary:
    """The balanced beam splitter used throughout: (1/sqrt 2) [[1, 1], [-1, 1]].

    Acts as a Hadamard on a dual-rail qubit when applied to the ordered mode
    pair (rail0, rail1). Note it is not self-inverse: H @ H = [[0,1],[-1,0]].
    """
    s = 1.0 / math.sqrt(2.0)
    return ModeUnitary([[s, s], [-s, s]])


def apply_mode_unitary(state: FockState, modes: Sequence[int], u: ModeUnitary) -> FockState:
    """Transform ``state`` by the element ``u`` acting on the listed modes.

    Each ket is rewritten through the creation-operator substitution with
    exact sqrt(n!) normalization, so photon number per term and the state
    norm are both preserved. Untouched modes pass through unchanged.
    """
    modes, local_of, _, _, place = layout(state.mode_count, modes)
    if not isinstance(u, ModeUnitary):
        raise ValueError(f"expected a ModeUnitary, got {type(u).__name__}")
    if u.dim != len(modes):
        raise ValueError(f"unitary is {u.dim}-mode but {len(modes)} modes were listed")
    if u.dim >= 3:
        _check_output_bound(state.terms, local_of, u.dim)
    expand = _expand_pairs if u._closed_form else _expand_dense if u._dense else _expand_direct
    try:
        terms = expand(state.terms, map(local_of, state.terms), u._columns, modes if u._closed_form else place)
        if terms is None:  # a ket past its kernel's cap
            terms = _expand_direct(state.terms, map(local_of, state.terms), u._columns, place)
    except OverflowError:  # math.sqrt of an int prod n! past the float range
        raise ValueError("more than 170 photons on the listed modes: sqrt(n!) overflows a float") from None
    return FockState._trusted(state.mode_count, terms)


def _check_output_bound(terms: dict, local_of: Callable, k: int) -> None:
    """Refuse a k-mode expansion that could output more than ``MAX_EXPANSION_TERMS`` terms.

    A ket with N photons on the k listed modes yields at most C(N+k-1, k-1)
    output kets, so the bound is integer work over the input kets.
    """
    photons = collections.Counter(map(sum, map(local_of, terms)))
    bound = sum(math.comb(n + k - 1, k - 1) * kets for n, kets in photons.items())
    if bound > MAX_EXPANSION_TERMS:
        raise ValueError(
            f"a {k}-mode unitary could output {bound} terms, above the limit of {MAX_EXPANSION_TERMS}"
        )


def _growth(k: int, reads: Sequence[str]) -> tuple[list[str], dict[tuple[int, ...], str]]:
    """The direct expansion's growth of x over one creation operator per read, replayed on the
    monomials of k modes with no zero entry: a read is the text of its column, unpacked into
    e0 .. e{k-1}, and each monomial's sum runs 0j + v * e_r + ... in the loop's order. Returns
    the lines and each output monomial's name, in the loop's order of first appearance."""
    names, lines = {(0,) * k: "x"}, []
    for s, read in enumerate(reads):
        lines.append(" " + ", ".join(f"e{r}" for r in range(k)) + f" = {read}")
        grown: dict[tuple[int, ...], str] = {}
        for mono, name in names.items():
            for r in range(k):
                key = mono[:r] + (mono[r] + 1,) + mono[r + 1 :]
                grown[key] = grown.get(key, "0j") + f" + {name} * e{r}"
        names = {mono: f"v{s}_{i}" for i, mono in enumerate(grown)}
        lines += (f" {names[mono]} = {total}" for mono, total in grown.items())
    return lines, names


def _compiled(head: str, lines: list[str], monomials: Iterable[tuple[int, ...]]) -> Callable:
    """The function ``kernel{head}`` with body ``lines``, output i's sqrt(prod q!) bound as s{i}."""
    namespace = {f"s{i}": math.sqrt(math.prod(map(math.factorial, mono))) for i, mono in enumerate(monomials)}
    exec("\n".join([f"def kernel{head}:", *lines]), namespace)
    return namespace["kernel"]


@functools.lru_cache(maxsize=256)
def _pair_plan(local: tuple[int, int]) -> tuple[float | None, Callable | None]:
    """(sqrt(a! b!), kernel) of the local occupation (a, b), (None, None) past ``KERNEL_PHOTONS``:
    ``kernel(out, key, p, q, x, columns)`` grows x = amp / sqrt(a! b!) over columns[j] for each
    creation operator in turn (a zeros, then b ones), and adds to ``out`` each monomial (i, j)
    times sqrt(i! j!), at ``key`` (a list of the ket) with i at p, j at q."""
    a, b = local
    if a + b > KERNEL_PHOTONS:
        return None, None
    lines, names = _growth(2, [f"columns[{j}]" for j in (0,) * a + (1,) * b])
    for i, ((x, y), name) in enumerate(names.items()):
        lines += (f" key[p] = {x}", f" key[q] = {y}", " k = tuple(key)", f" out[k] = out.get(k, 0j) + {name} * s{i}")
    return math.sqrt(math.factorial(a) * math.factorial(b)), _compiled("(out, key, p, q, x, columns)", lines, names)


def _expand_pairs(terms: dict, locals_: Iterable, columns: list, modes: tuple[int, int]) -> dict | None:
    """Each ket's expansion, summed, in closed form (a 2-mode unitary, no zero entry); None past the cap."""
    p, q = modes
    out: dict[tuple[int, ...], complex] = {}
    for (ket, amp), local in zip(terms.items(), locals_):
        if local == (0, 0):  # its own output, which no other ket (same rest, no photon here) reaches
            out[ket] = 0j + amp
            continue
        norm, kernel = _pair_plan(local)
        if kernel is None:
            return None
        kernel(out, list(ket), p, q, amp / norm, columns)
    return out


@functools.lru_cache(maxsize=64)
def _dense_kernel(k: int, n: int) -> tuple[Callable, tuple] | None:
    """(kernel, monomials) of n photons on k modes, None past ``KERNEL_TERMS`` growth terms:
    ``kernel(acc, x, seq)`` grows x over ``seq``, the columns of the n operators, none with a zero
    entry, as ``_expand_direct`` does, and adds output i times its sqrt(prod q!) to acc[i]."""
    if k * math.comb(n + k - 1, k) > KERNEL_TERMS:
        return None
    lines, names = _growth(k, [f"seq[{s}]" for s in range(n)])
    lines += (f" acc[{i}] += {name} * s{i}" for i, name in enumerate(names.values()))
    return _compiled("(acc, x, seq)", lines, names), tuple(names)


def _expand_dense(terms: dict, locals_: Iterable, columns: list, place: Callable) -> dict | None:
    """Each ket's expansion by the kernel of its (k, N), summed per group of kets with one rest and
    N photons on the k >= 3 listed modes (no zero entry); None if a kernel would pass the cap."""
    k, groups = len(columns), {}
    for (ket, amp), local in zip(terms.items(), locals_):
        if (group := groups.get(key := (place(ket + (0,) * k), sum(local)))) is None:
            if (plan := _dense_kernel(k, key[1])) is None:
                return None
            group = groups[key] = (*plan, [0j] * len(plan[1]))
        x = amp / math.sqrt(math.prod(map(math.factorial, local)))
        group[0](group[2], x, [column for column, m in zip(columns, local) for _ in range(m)])
    return {place(rest + q): c for (rest, _), (_, monos, acc) in groups.items() for q, c in zip(monos, acc)}


def _expand_direct(terms: dict, locals_: Iterable, columns: list, place: Callable) -> dict:
    """Each ket's expansion, summed, one creation operator at a time over the nonzero entries of its column."""
    columns = [[(r, c) for r, c in enumerate(col) if c != 0] for col in columns]  # (row r, U[r, j])
    scales: dict[tuple[int, ...], float] = {}
    out: dict[tuple[int, ...], complex] = {}
    for (ket, amp), local in zip(terms.items(), locals_):
        monos = {(0,) * len(local): amp / math.sqrt(math.prod(map(math.factorial, local)))}
        for column, count in zip(columns, local):
            for _ in range(count):
                grown: dict[tuple[int, ...], complex] = {}
                for mono, coeff in monos.items():
                    for r, c in column:
                        key = mono[:r] + (mono[r] + 1,) + mono[r + 1 :]
                        grown[key] = grown.get(key, 0j) + coeff * c
                monos = grown
        for mono, coeff in monos.items():
            if (scale := scales.get(mono)) is None:
                scale = scales[mono] = math.sqrt(math.prod(map(math.factorial, mono)))
            key = place(ket + mono)
            out[key] = out.get(key, 0j) + coeff * scale
    return out
