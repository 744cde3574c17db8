"""Bell operator pipeline: logical form, stabilizer form, measurement settings,
and the abstract multilinear Bell expression.

The pipeline starts from a scaled direction in the logical Bloch sphere,
renders it as a Pauli-string operator, optionally rewrites one qubit's factors
through a complementary setting pair, and finally replaces operators by
per-party symbols. All stages are matrix-identical; only the bookkeeping
changes. ``render_operator`` is the one way back from symbols to operators.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

import numpy as np

from .logical import (
    LogicalPaulis,
    bell_logical_paulis,
    ghz3_logical_paulis,
    logical_paulis_symbolic,
)
from .pauli import (
    _BITS_LETTER,
    _BLOCH_BITS,
    DENSE_QUBIT_CAP,
    PauliSum,
    PauliTerm,
    _check_cap,
    bloch_sum,
    product,
)
from .stabilizer import (
    GraphSpec,
    bell_basis,
    ghz3_basis,
    graph_state_generators,
)

DICHOTOMY_ATOL = 1e-12


class DecompositionError(ValueError):
    """The requested complementary rewrite does not apply to this operator."""


def party_letter(party: int) -> str:
    return chr(ord("A") + party % 26)


@dataclass(frozen=True)
class Setting:
    """A dichotomic single-qubit observable assigned to one party."""

    party: int
    label: str
    op: PauliSum

    def __post_init__(self):
        if self.op.n != 1:
            raise ValueError("setting operator must be single-qubit")
        sq = product(self.op, self.op)
        if len(sq) != 1 or abs(sq.coeff(PauliTerm.identity(1)) - 1.0) > DICHOTOMY_ATOL:
            raise ValueError(f"setting {self.label} is not dichotomic: op^2 != I")

    def bloch(self) -> tuple[float, float, float]:
        return tuple(self.op._terms.get(bits, 0.0) for bits in _BLOCH_BITS)

    def embed(self, n: int) -> PauliSum:
        return embed_single(self.op, self.party, n)


def embed_single(op: PauliSum, party: int, n: int) -> PauliSum:
    """Place a single-qubit operator at one qubit of an n-qubit register."""
    if op.n != 1:
        raise ValueError("expected a single-qubit operator")
    if not 0 <= party < n:
        raise ValueError(f"party {party} outside range 0..{n - 1}")
    return PauliSum(n, {(x << party, z << party): c
                        for (x, z), c in op._terms.items()})


Symbol = tuple[int, str]          # (party, label)
TermKey = tuple[Symbol, ...]      # sorted by party, one factor per party


class BellExpression:
    """Multilinear polynomial in abstract per-party dichotomic symbols.

    Stored as its factor table (see ``factor_table``): the sorted symbols, the
    read-only ``index`` and ``coeffs`` arrays, one row per term, and the
    constant. Terms given as a dict have their factors sorted, repeated keys
    summed and zero coefficients dropped, and keep the dict's order; the
    cleaned dict is kept as the ``terms`` view. An expression written
    straight from a table (``symbolize``) builds that view on first use.
    """

    def __init__(self, parties: int, terms: dict[TermKey, float] | None = None,
                 constant: float = 0.0):
        clean: dict[TermKey, float] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(sorted(key))
            if len({p for p, _ in key}) != len(key):
                raise ValueError(f"term {key} repeats a party")
            if key == ():
                raise ValueError("empty factor tuple; fold it into the constant")
            # sorted by party, so the first and last factors hold the extremes
            if not (0 <= key[0][0] and key[-1][0] < parties):
                raise ValueError(f"term {key} names a party outside 0..{parties - 1}")
            clean[key] = clean.get(key, 0.0) + float(coeff)
        clean = {k: c for k, c in clean.items() if c != 0.0}
        symbols = sorted({s for key in clean for s in key})
        slot = {sym: j for j, sym in enumerate(symbols, 1)}
        index = np.zeros((len(clean), parties), dtype=np.intp)
        for t, key in enumerate(clean):
            for sym in key:
                index[t, sym[0]] = slot[sym]
        self._store(parties, symbols, index, np.array(list(clean.values()), dtype=float),
                    constant)
        self._terms = MappingProxyType(clean)

    @classmethod
    def _from_table(cls, parties: int, symbols: list[Symbol], index: np.ndarray,
                    coeffs: np.ndarray, constant: float) -> "BellExpression":
        """The expression with this factor table, taken as is: ``symbols``
        sorted and each used, no zero in ``coeffs``, no row repeated."""
        expr = cls.__new__(cls)
        expr._store(parties, symbols, index, coeffs, constant)
        return expr

    def _store(self, parties, symbols, index, coeffs, constant) -> None:
        index.flags.writeable = coeffs.flags.writeable = False
        self.parties, self.constant = parties, constant
        self._symbols, self._index, self._coeffs = tuple(symbols), index, coeffs
        self._terms: MappingProxyType | None = None

    @property
    def terms(self) -> MappingProxyType:
        """Read-only ``{(symbol, ...): coefficient}``, factors sorted by party,
        in term order."""
        if self._terms is None:
            symbol = (None, *self._symbols)
            self._terms = MappingProxyType({
                tuple([symbol[j] for j in row if j]): c
                for row, c in zip(self._index.tolist(), self._coeffs.tolist())})
        return self._terms

    @property
    def symbols(self) -> list[Symbol]:
        return list(self._symbols)

    def factor_table(self, symbols: list[Symbol] | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """``(index, coeffs)``, read-only: ``index[t, p]`` is 1 + the position in
        ``symbols`` (default ``self.symbols``; it may hold more, in any order)
        of term t's symbol on party p, 0 if it has none; ``coeffs`` is float64.
        Both run in term order."""
        if symbols is None or tuple(symbols) == self._symbols:
            return self._index, self._coeffs
        slot = {sym: j for j, sym in enumerate(symbols, 1)}
        missing = [sym for sym in self._symbols if sym not in slot]
        if missing:
            raise ValueError(f"symbols {missing} of the expression are not listed")
        index = np.array([0, *map(slot.get, self._symbols)], dtype=np.intp)[self._index]
        index.flags.writeable = False
        return index, self._coeffs

    def __eq__(self, other) -> bool:
        """Equal parties, constant and terms; term order does not count."""
        if not isinstance(other, BellExpression):
            return NotImplemented
        return (self.parties, self.constant, dict(self.terms)) == \
            (other.parties, other.constant, dict(other.terms))

    def __len__(self) -> int:
        return len(self._coeffs)

    def __repr__(self) -> str:
        return f"BellExpression({self.parties}, {dict(self.terms)!r}, {self.constant!r})"

    def __str__(self) -> str:
        parts = []
        if self.constant:
            parts.append(f"{self.constant:+g}")
        for key, c in sorted(self.terms.items()):
            body = "*".join([f"{label}_{party}" for party, label in key])
            if abs(abs(c) - 1.0) < 1e-12:
                parts.append(("+ " if c > 0 else "- ") + body)
            else:
                parts.append(f"{c:+g}*{body}")
        return " ".join(parts) if parts else "0"

    def scaled(self, factor: float) -> "BellExpression":
        return BellExpression(self.parties,
                              {k: factor * c for k, c in self.terms.items()},
                              factor * self.constant)


def render_terms(expr: BellExpression,
                 bindings: dict[Symbol, Setting]) -> list[PauliSum]:
    """One operator per term of ``expr``, in term order: the coefficient times
    its bound settings, multiplied in party order (a term walk, not
    ``factor_table``); SOS pairing search takes these.

    The factors sit on distinct qubits, so each product is a tensor product
    with phase 0: a key is the OR of the factors' masks and a coefficient the
    product of theirs, taken in party order. Each term's sum is built in one
    pass, its keys in the order the pairwise product route gives them (the
    partial sum sorted, then each setting's terms in sorted order)."""
    n = expr.parties
    embedded = {}
    for sym in expr.symbols:
        try:
            setting = bindings[sym]
        except KeyError:
            raise ValueError(f"symbol {sym} is not bound to a setting") from None
        if setting.party != sym[0]:
            raise ValueError(f"binding for {sym} names party {setting.party}")
        embedded[sym] = sorted(setting.embed(n)._terms.items())
    out = []
    for key, coeff in expr.terms.items():
        terms = {(0, 0): coeff}
        for sym in key:
            terms = {(xa | xb, za | zb): ca * cb
                     for (xa, za), ca in sorted(terms.items())
                     for (xb, zb), cb in embedded[sym]}
        out.append(PauliSum(n, terms))
    return out


def render_operator(expr: BellExpression,
                    bindings: dict[Symbol, Setting]) -> PauliSum:
    """Substitute bound settings into the expression, yielding the Bell operator;
    its bits fix those of every derived operator."""
    return sum_terms(expr, render_terms(expr, bindings))


def sum_terms(expr: BellExpression, terms: list[PauliSum]) -> PauliSum:
    """The constant of ``expr`` plus its rendered ``terms``, added in order."""
    return sum(terms, PauliSum.identity(expr.parties, expr.constant))


def evaluate_quantum(expr: BellExpression, bindings: dict[Symbol, Setting],
                     state: np.ndarray) -> float:
    """<B> for bound settings on a state vector or density matrix."""
    missing = [s for s in expr.symbols if s not in bindings]
    if missing:
        raise ValueError(f"unbound symbols: {missing}")
    return render_operator(expr, bindings).expectation(state)


@cache
def _letter_setting(party: int, label: str, letter: str) -> Setting:
    """The setting measuring one Pauli letter at one party, built and checked
    for dichotomy once per process and shared (``Setting`` is frozen)."""
    return Setting(party, label, PauliSum.from_strings([(letter, 1.0)], n=1))


@cache
def _letter_cells(n: int, labels: tuple[str | None, str | None, str | None]) -> np.ndarray:
    """``cells[q, x, z]``, the cell of the Pauli letter with bits (x, z) at
    qubit q when X, Y and Z have these labels (None if unmapped); built once
    per process and shared read-only.

    With the k labels sorted, a mapped letter's cell is 1 + k q + the rank of
    its label, so the cells in use run in symbol order. The identity is cell
    0 and an unmapped letter cell 1 + k n.
    """
    ranked = sorted(label for label in labels if label is not None)
    k, label_of = len(ranked), dict(zip("XYZ", labels))
    cells = np.zeros((n, 2, 2), dtype=np.intp)
    for (x, z), letter in _BITS_LETTER.items():
        if letter != "I":
            label = label_of[letter]
            cells[:, x, z] = k * n + 1 if label is None else \
                k * np.arange(n) + 1 + ranked.index(label)
    cells.flags.writeable = False
    return cells


def symbolize(op: PauliSum, symbol_map: dict[str, str]
              ) -> tuple[BellExpression, dict[Symbol, Setting]]:
    """Replace each single-qubit Pauli by a per-party symbol.

    ``symbol_map`` sends Pauli letters to distinct symbol names, e.g.
    {"Z": "A", "X": "B", "Y": "C"}. The all-identity term becomes the
    expression's constant. Every non-identity letter must be mapped. The
    bindings hold exactly the expression's symbols, in its order; settings
    come from ``_letter_setting``.

    The factor table is written from the sum's sorted (x, z) mask arrays:
    each term's bits (x_q, z_q) on each qubit q pick a ``_letter_cells``
    cell, and the cells in use, in (qubit, label) order, are the symbols.
    Terms stay in sorted (x, z) order.
    """
    labels = [symbol_map[letter] for letter in "XYZ" if letter in symbol_map]
    if len(set(labels)) != len(labels):
        raise ValueError("symbol map sends two Pauli letters to the same label: "
                         f"{symbol_map!r}")
    labels.sort()
    n, k = op.n, len(labels)
    cells_at = _letter_cells(n, tuple(symbol_map.get(letter) for letter in "XYZ"))
    xs, zs, coeffs = op._sorted_arrays()
    # sorted (x, z) order puts the identity term, if any, first
    constant = float(op._terms.get((0, 0), 0.0))
    first = int(constant != 0.0)
    qubits = np.arange(n)
    xbits = np.asarray(xs[first:, None] >> qubits & 1, dtype=np.intp)
    zbits = np.asarray(zs[first:, None] >> qubits & 1, dtype=np.intp)
    cells = cells_at[qubits, xbits, zbits]
    counts = np.bincount(cells.ravel(), minlength=2 + k * n)
    if counts[-1]:
        t, q = divmod(int(np.argmax(cells.ravel() == 1 + k * n)), n)
        raise ValueError("no symbol mapped for Pauli letter "
                         f"{_BITS_LETTER[int(xbits[t, q]), int(zbits[t, q])]}")
    used = counts[:-1] > 0
    used[0] = False
    symbols = [((c - 1) // k, labels[(c - 1) % k]) for c in used.nonzero()[0].tolist()]
    letter_of = {symbol_map[letter]: letter for letter in "XYZ" if letter in symbol_map}
    bindings = {sym: _letter_setting(*sym, letter_of[sym[1]]) for sym in symbols}
    # a used cell's slot is the count of used cells up to it; cell 0 gets 0
    index = used.cumsum(dtype=np.intp)[cells]
    return BellExpression._from_table(n, symbols, index, coeffs[first:], constant), bindings


# --- complementary setting rewrite ------------------------------------------

def _canonical_direction(vec: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit direction with first nonzero component positive, plus the scale."""
    norm = float(np.linalg.norm(vec))
    d = vec / norm
    for comp in d:
        if abs(comp) > 1e-12:
            if comp < 0:
                return -d, -norm
            break
    return d, norm


@dataclass
class DecomposedOperator:
    """A Bell operator rewritten over a complementary setting pair at one qubit.

    Each product is coeff * (setting at pivot) x (restriction on the other
    qubits); the restriction term always has identity at the pivot.
    """

    n: int
    pivot: int
    settings: tuple[Setting, Setting]
    products: list[tuple[float, int, PauliTerm]]


def complementary_decompose(op: PauliSum, pivot: int) -> DecomposedOperator:
    """Rewrite the pivot qubit's factors over a complementary observable pair.

    Terms are grouped by their restriction to the other qubits. Each group's
    pivot content must be traceless; across groups exactly two orthogonal
    Bloch directions must occur. Two singleton groups are split through
    (M+N)/sqrt2 and (M-N)/sqrt2; richer group structure keeps each group's
    own unit combination as a setting.
    """
    if not 0 <= pivot < op.n:
        raise ValueError(f"pivot {pivot} outside range 0..{op.n - 1}")
    if op.is_zero:
        raise DecompositionError("cannot decompose the zero operator")
    pivot_bit = 1 << pivot

    # the pivot's Bloch vector in each group
    groups: dict[tuple[int, int], np.ndarray] = {}
    for term, coeff in op.items():
        rest_key = (term.x_mask & ~pivot_bit, term.z_mask & ~pivot_bit)
        pbits = ((term.x_mask >> pivot) & 1, (term.z_mask >> pivot) & 1)
        if pbits == (0, 0):
            raise DecompositionError(
                f"term {term.letters} has identity at the pivot; no pairing")
        groups.setdefault(rest_key, np.zeros(3))[_BLOCH_BITS.index(pbits)] = coeff

    resolved = []  # (scale, direction ndarray, rest_key)
    for rest_key, vec in sorted(groups.items()):
        direction, scale = _canonical_direction(vec)
        resolved.append((scale, direction, rest_key))

    dirs: list[np.ndarray] = []
    for _, direction, _ in resolved:
        if not any(np.allclose(direction, d, atol=1e-9) for d in dirs):
            dirs.append(direction)
    if len(dirs) != 2:
        raise DecompositionError(
            f"pivot directions do not form one complementary pair "
            f"(found {len(dirs)} distinct direction(s))")
    dirs.sort(key=lambda d: tuple(np.round(d, 12)), reverse=True)
    d1, d2 = dirs
    if abs(float(np.dot(d1, d2))) > 1e-9:
        raise DecompositionError("pivot directions are not complementary")

    letter = party_letter(pivot)

    def rest_term(rest_key: tuple[int, int]) -> PauliTerm:
        return PauliTerm(op.n, rest_key[0], rest_key[1], 0)

    if len(resolved) == 2:
        # Split mode: both groups are expressed over the mid directions.
        s_plus = Setting(pivot, letter, bloch_sum((d1 + d2) / math.sqrt(2)))
        s_minus = Setting(pivot, letter + "'", bloch_sum((d1 - d2) / math.sqrt(2)))
        products: list[tuple[float, int, PauliTerm]] = []
        for scale, direction, rest_key in resolved:
            rest = rest_term(rest_key)
            c = scale / math.sqrt(2)
            if np.allclose(direction, d1, atol=1e-9):
                products.append((c, 0, rest))
                products.append((c, 1, rest))
            else:
                products.append((c, 0, rest))
                products.append((-c, 1, rest))
        settings = (s_plus, s_minus)
    else:
        # Merge mode: each group's unit combination is itself a setting.
        settings = (Setting(pivot, letter, bloch_sum(d1)),
                    Setting(pivot, letter + "'", bloch_sum(d2)))
        products = []
        for scale, direction, rest_key in resolved:
            idx = 0 if np.allclose(direction, d1, atol=1e-9) else 1
            products.append((scale, idx, rest_term(rest_key)))

    return DecomposedOperator(op.n, pivot, settings, products)


def symbolize_decomposed(dec: DecomposedOperator,
                         letter_order: dict[int, list[str]] | None = None
                         ) -> tuple[BellExpression, dict[Symbol, Setting]]:
    """Symbols for a decomposed operator: primed labels per party.

    A non-pivot party's k-th Pauli letter, in first-seen order, gets the
    label L followed by k primes (L, L', L'', ...); ``letter_order`` pins that
    order per party when the default is not wanted.
    """
    letter_order = dict(letter_order or {})
    n = dec.n
    bindings: dict[Symbol, Setting] = {}
    label_of: dict[tuple[int, str], str] = {}

    for s in dec.settings:
        bindings[(s.party, s.label)] = s

    def assign_label(party: int, pauli_letter: str) -> str:
        key = (party, pauli_letter)
        if key in label_of:
            return label_of[key]
        order = letter_order.setdefault(party, [])
        if pauli_letter not in order:
            order.append(pauli_letter)
        label = party_letter(party) + "'" * order.index(pauli_letter)
        label_of[key] = label
        bindings[(party, label)] = _letter_setting(party, label, pauli_letter)
        return label

    terms: dict[TermKey, float] = {}
    for coeff, s_idx, rest in dec.products:
        setting = dec.settings[s_idx]
        key = [(setting.party, setting.label)]
        for q in range(n):
            if q == dec.pivot:
                continue
            letter = rest.letter(q)
            if letter == "I":
                continue
            key.append((q, assign_label(q, letter)))
        tkey = tuple(sorted(key))
        terms[tkey] = terms.get(tkey, 0.0) + coeff
    return BellExpression(n, terms), bindings


# --- chained multi-setting construction --------------------------------------

@dataclass(frozen=True)
class ChainedConstruction:
    expression: BellExpression
    bindings: MappingProxyType              # symbol -> Setting, read-only
    quantum_bound: float                    # 2n cos(pi/2n)

    @property
    def operator(self) -> PauliSum:
        """The two-qubit Bell operator, rendered from the expression."""
        return render_operator(self.expression, self.bindings)


def xz_setting(party: int, label: str, theta: float) -> Setting:
    """Z rotated by theta towards X: cos(theta) Z + sin(theta) X."""
    return Setting(party, label, bloch_sum((math.sin(theta), 0.0, math.cos(theta))))


@cache
def chained_construction(n: int) -> ChainedConstruction:
    """The n-settings-per-party chained Bell construction on two qubits.

    Party 0 measures at angles (k-1)pi/n, party 1 at half-offset angles
    (2k-1)pi/2n; the resulting 2n-term operator equals 2n cos(pi/2n) times
    the logical Z of the two-qubit Bell basis. Built once per n, shared.
    """
    if n < 2:
        raise ValueError("chained construction needs at least 2 settings per party")
    a = [xz_setting(0, f"A{k}", (k - 1) * math.pi / n) for k in range(1, n + 1)]
    b = [xz_setting(1, f"B{k}", (2 * k - 1) * math.pi / (2 * n)) for k in range(1, n + 1)]
    # + A_k B_k for each k, + A_k+1 B_k for k < n, - A_1 B_n
    pairs = [(k, k, 1.0) for k in range(1, n + 1)] + \
        [(k + 1, k, 1.0) for k in range(1, n)] + [(1, n, -1.0)]
    expr = BellExpression(2, {((0, f"A{i}"), (1, f"B{j}")): c for i, j, c in pairs})
    bindings = {(s.party, s.label): s for s in a + b}
    return ChainedConstruction(expr, MappingProxyType(bindings),
                               2 * n * math.cos(math.pi / (2 * n)))


# --- recipes ------------------------------------------------------------------

@dataclass
class BellRecipe:
    """Declarative description of one pipeline run (JSON-loadable)."""

    ops: LogicalPaulis              # the basis's logical qubit
    k: tuple[float, float, float]
    beta_q: float
    decomposition: dict
    symbols: dict[str, str]

    @classmethod
    def from_dict(cls, data: dict, cap: int = DENSE_QUBIT_CAP) -> "BellRecipe":
        """The recipe described by ``data``. Its logical operators are resolved
        after every field check: shared for the named bases, by the symbolic
        route for a graph basis, under the dense qubit cap ``cap``."""
        if not isinstance(data, dict):
            raise ValueError(f"recipe must be an object, not {data!r}")
        basis_spec = data["basis"]
        if not isinstance(basis_spec, dict):
            raise ValueError(f"basis must be an object, not {basis_spec!r}")
        kind = basis_spec["kind"]
        if kind == "bell":
            n, resolve = bell_basis().n, bell_logical_paulis
        elif kind == "ghz3":
            n, resolve = ghz3_basis().n, ghz3_logical_paulis
        elif kind == "graph":
            graph = _graph_spec(basis_spec["graph"])
            flip_text = basis_spec["flip"]
            if not isinstance(flip_text, str):
                raise ValueError(f"flip must be a Pauli string, got {flip_text!r}")
            group = graph_state_generators(graph)
            flip = PauliTerm.from_string(flip_text)
            n = graph.n

            def resolve() -> LogicalPaulis:
                _check_cap(n, cap)    # the group's arrays hold 2^n elements
                return logical_paulis_symbolic(group, flip)
        else:
            raise ValueError(f"unknown basis kind {kind!r}")
        k = data.get("k", [0, 0, 1])
        if not (isinstance(k, list) and len(k) == 3 and all(map(_is_real, k))):
            raise ValueError(f"direction k must be three real numbers, got {k!r}")
        k = np.asarray(k, dtype=float)
        if abs(np.linalg.norm(k) - 1.0) > 1e-12:
            raise ValueError("direction k must be unit norm")
        beta_raw = data.get("beta_q", "auto")
        if beta_raw == "auto":
            beta = float(2 ** (n - 1) * np.sum(np.abs(k)))
        elif _is_real(beta_raw) and beta_raw > 0:
            beta = float(beta_raw)
        else:
            raise ValueError(
                f'beta_q must be "auto" or a positive real number, got {beta_raw!r}')
        decomposition = data.get("decomposition", {"kind": "none"})
        _check_decomposition(decomposition)
        symbols = data.get("symbols", {"Z": "A", "X": "B", "Y": "C"})
        if not (isinstance(symbols, dict) and set(symbols) <= {"X", "Y", "Z"}
                and all(isinstance(name, str) for name in symbols.values())
                and len(set(symbols.values())) == len(symbols)):
            raise ValueError("symbols must be an object mapping Pauli letters "
                             f"X, Y, Z to distinct strings, got {symbols!r}")
        return cls(
            ops=resolve(),
            k=(float(k[0]), float(k[1]), float(k[2])),
            beta_q=beta,
            decomposition=decomposition,
            symbols=symbols,
        )


def _is_real(value) -> bool:
    """A JSON number that fits a finite float; a bool is not one."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _graph_spec(spec) -> GraphSpec:
    """The graph of a recipe's graph basis: ``{"n": int >= 1, "edges": [[u, v], ...]}``."""
    if not (isinstance(spec, dict) and _is_int(spec.get("n")) and spec["n"] >= 1):
        raise ValueError(f"graph must be an object with an integer n >= 1, got {spec!r}")
    edges = spec.get("edges")
    if not (isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))
            for e in edges)):
        raise ValueError(f"graph edges must be a list of integer pairs, got {edges!r}")
    return GraphSpec.from_edges(spec["n"], edges)


def _check_decomposition(spec) -> None:
    """Raise ValueError unless ``spec`` names a known decomposition kind with
    its parameter: an integer ``pivot`` for complementary, an integer ``n`` of
    at least 2 for chained, nothing for none (the default kind)."""
    if not isinstance(spec, dict):
        raise ValueError(f"decomposition must be an object, not {spec!r}")
    kind = spec.get("kind", "none")
    if kind == "none":
        return
    key = {"complementary": "pivot", "chained": "n"}.get(kind) \
        if isinstance(kind, str) else None
    if key is None:
        raise ValueError(f"unknown decomposition kind {kind!r}")
    value = spec.get(key)
    if not _is_int(value):
        raise ValueError(f"{kind} decomposition needs an integer {key!r}, got {value!r}")
    if kind == "chained" and value < 2:
        raise ValueError(f"chained decomposition needs n >= 2, got {value}")


def build_logical(recipe: BellRecipe) -> PauliSum:
    """beta_q * (k . logical sigma): the logical form, already in Pauli strings."""
    return recipe.beta_q * recipe.ops.direction(recipe.k)
