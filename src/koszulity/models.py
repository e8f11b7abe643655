"""Synthetic Milnor-ring models: local cases and global symbol data.

The local models are the mod-l Milnor rings of local fields, given by a
nondegenerate degree-2 pairing on the generator space.  The global models
are finite "symbol data": a list of completion places with local pairing
matrices, a list of outside valuations, and generators carrying local
images, divisor orders and Frobenius values.  Pairs of generators multiply
to a vector of local symbols, one coordinate per place, held for all pairs
at once in one array (`GlobalSymbolDatum.symbols`); the sum of all
coordinates vanishes when the datum is flagged as satisfying reciprocity.

The quadratic algebra spanned by these symbol vectors is the object the
Koszulity machinery is run on; the builders in this module synthesize data
whose algebras have known, predictable inverse-lex filtrations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from . import gf
from .gf import PrimeField, RowSpan
from .monomials import GeneratorOrder, Monomial, invlex_words
from .algebra import (DegreewiseAlgebra, QuadraticPresentation, SymmetryMode,
                      _json_int, normal_monomials)

LOCAL_CASES = ("symplectic", "two_zero", "two_nonzero", "noroot")

# smallest admissible generator-space dimension and its successor, per case
MINIMAL_DIMS = {
    "symplectic": (2, 4),
    "two_zero": (2, 4),
    "two_nonzero": (3, 5),
    "noroot": (1, 2),
}


# the builders' bound on attempts before giving up on a seed
MAX_TRIES = 200


def _mode(l: int, sqrt_minus1: bool) -> SymmetryMode:
    """Symbols commute only for l = 2 without sqrt(-1), where {x,x} = {-1,x}."""
    if l != 2 or sqrt_minus1:
        return SymmetryMode.SUPERCOMMUTATIVE
    return SymmetryMode.COMMUTATIVE


# ---------------------------------------------------------------------------
# local models


@dataclass(frozen=True)
class LocalCase:
    """A local Milnor-ring model: case name, dim of K*/K*^l, and the prime."""

    case: str
    dim: int
    l: int
    sqrt_minus1: bool = False

    def __post_init__(self) -> None:
        if self.case not in LOCAL_CASES:
            raise ValueError(f"unknown local case {self.case!r}")
        if self.case == "symplectic":
            if self.dim < 2 or self.dim % 2:
                raise ValueError("symplectic case needs even dim >= 2")
            if self.l == 2 and not self.sqrt_minus1:
                raise ValueError("symplectic case at l=2 needs sqrt(-1)")
        if self.case in ("two_zero", "two_nonzero"):
            if self.l != 2 or self.sqrt_minus1:
                raise ValueError(f"{self.case} is an l=2, no-sqrt(-1) case")
            want_odd = self.case == "two_nonzero"
            if self.dim % 2 != want_odd or self.dim < (3 if want_odd else 2):
                raise ValueError(f"bad dim {self.dim} for {self.case}")
        if self.case == "noroot":
            if self.l == 2 or self.dim < 1:
                raise ValueError("noroot case needs odd l and dim >= 1")

    @property
    def mode(self) -> SymmetryMode:
        return _mode(self.l, self.sqrt_minus1)


def _hyperbolic_blocks(count: int, skew: bool, p: int) -> list[np.ndarray]:
    low = (-1) % p if skew else 1
    return [np.array([[0, 1], [low, 0]], dtype=np.int64) for _ in range(count)]


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.int64)
    off = 0
    for b in blocks:
        out[off:off + b.shape[0], off:off + b.shape[0]] = b
        off += b.shape[0]
    return out


def local_gram(case: LocalCase) -> tuple[np.ndarray | None, int | None]:
    """Pairing matrix of the degree-2 symbol map and the rank of the class
    of -1 (None when -1 is an l-th power)."""
    m, p = case.dim, case.l
    if case.case == "noroot":
        return None, None
    if case.case == "symplectic":
        return _block_diag(_hyperbolic_blocks(m // 2, True, p)), None
    if case.case == "two_zero":
        head = np.array([[0, 1], [1, 1]], dtype=np.int64)
        return _block_diag([head] + _hyperbolic_blocks((m - 2) // 2, False, p)), 0
    head = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=np.int64)
    return _block_diag([head] + _hyperbolic_blocks((m - 3) // 2, False, p)), 1


def build_local(case: LocalCase, n_max: int = 5):
    """Degreewise local Milnor ring, its exterior cover's presentation, and
    the generator order.  A_1 = K*/K*^l, A_2 = F_l via the pairing (zero in
    the noroot case), A_n = 0 for n >= 3."""
    fld = PrimeField(case.l)
    m = case.dim
    order = GeneratorOrder(tuple(f"x{i}" for i in range(m)))
    gram, t = local_gram(case)
    dim2 = 0 if gram is None else 1
    dims = [1, m, dim2] + [0] * (n_max - 2)
    gen_action: list[list[np.ndarray]] = []
    eye = np.eye(m, dtype=np.int64)
    gen_action.append([eye[:, g:g + 1] for g in range(m)])
    gen_action.append([
        (gram[g:g + 1, :] % case.l if gram is not None
         else np.zeros((0, m), dtype=np.int64))
        for g in range(m)
    ])
    for n in range(2, n_max):
        gen_action.append([np.zeros((0, dims[n]), dtype=np.int64) for _ in range(m)])
    a = DegreewiseAlgebra(fld, case.mode, order, n_max, dims, gen_action)
    combos = []
    if case.mode is SymmetryMode.COMMUTATIVE:
        # squares collapse onto the class of -1: x_a^2 = x_t * x_a
        for g in range(m):
            if g == t:
                continue
            combos.append({
                Monomial.from_dict({g: 2}): 1,
                Monomial.from_dict({t: 1, g: 1}): -1,
            })
    lam = QuadraticPresentation.from_combos(fld, case.mode, order, combos)
    return a, lam, order


def local_presentation(case: LocalCase) -> QuadraticPresentation:
    """Quadratic presentation of the local model itself: the relations are
    the kernel of the degree-2 symbol pairing."""
    fld = PrimeField(case.l)
    order = GeneratorOrder(tuple(f"x{i}" for i in range(case.dim)))
    gram, _ = local_gram(case)
    words = invlex_words(case.dim, 2, case.mode is SymmetryMode.SUPERCOMMUTATIVE)
    rel = gf.nullspace(gram[None, words[:, 0], words[:, 1]] % case.l, case.l) \
        if gram is not None else np.eye(len(words), dtype=np.int64)
    return QuadraticPresentation(fld, case.mode, order, rel)


def local_expected_survivors(case: LocalCase) -> list[str]:
    """The surviving quadratic monomials of the local model, by case."""
    if case.case == "noroot":
        return []
    if case.case == "two_nonzero":
        return ["x0*x2"]
    return ["x0*x1"]


def local_annihilator_choices(case: LocalCase) -> list[tuple[str, np.ndarray]]:
    """Degree-1 elements c covering the annihilator case split:
    {c,c} = 0; {c,c} != 0 with c != -1; and c = -1 with {-1,-1} != 0."""
    m = case.dim
    eye = np.eye(m, dtype=np.int64)
    if case.case in ("symplectic", "noroot"):
        return [("{c,c} = 0", eye[0])]
    if case.case == "two_zero":
        return [
            ("c = class of -1, {c,c} = 0", eye[0]),
            ("{c,c} != 0, c != -1", eye[1]),
        ]
    return [
        ("{c,c} = 0", eye[0]),
        ("{c,c} != 0, c != -1", (eye[0] + eye[1]) % case.l),
        ("c = class of -1, {-1,-1} != 0", eye[1]),
    ]


# ---------------------------------------------------------------------------
# global symbol data


@dataclass
class SPlace:
    """A completion place in the finite set S: local pairing + class of -1.

    kind is "nonarch", "real" (dim 1, gram [[1]]) or "complex" (dim 0).
    flagged records whether the local field contains the l-th roots of
    unity, i.e. whether the place carries a symbol coordinate.
    """

    label: str
    kind: str
    gram: np.ndarray
    minus1: np.ndarray
    flagged: bool = True

    def __post_init__(self) -> None:
        self.gram = np.asarray(self.gram, dtype=np.int64)
        self.minus1 = np.asarray(self.minus1, dtype=np.int64).reshape(-1)
        if self.kind not in ("nonarch", "real", "complex"):
            raise ValueError(f"unknown place kind {self.kind!r}")
        if self.gram.shape != (self.dim, self.dim) or self.minus1.shape != (self.dim,):
            raise ValueError(f"shape mismatch at place {self.label}")
        if self.kind == "real" and self.dim != 1:
            raise ValueError("real places have 1-dimensional local groups")
        if self.kind == "complex" and self.dim != 0:
            raise ValueError("complex places have trivial local groups")

    @property
    def dim(self) -> int:
        return self.gram.shape[0]


@dataclass
class OutsidePlace:
    """A valuation outside S; flagged iff it carries a symbol coordinate."""

    label: str
    flagged: bool = True


@dataclass
class DatumGenerator:
    """Generator of the mod-l multiplicative group in the model: local
    images at the S-places, divisor orders, and Frobenius values at the
    outside valuations."""

    label: str
    images: list[np.ndarray]
    ord: dict[str, int] = field(default_factory=dict)
    frob: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.images = [np.asarray(v, dtype=np.int64).reshape(-1) for v in self.images]


@dataclass
class GlobalSymbolDatum:
    """A finite model of a number field's mod-l symbol algebra."""

    fld: PrimeField
    sqrt_minus1: bool
    s_places: list[SPlace]
    outside_places: list[OutsidePlace]
    generators: list[DatumGenerator]
    reciprocity: bool = True
    lagrangian: np.ndarray | None = None
    minus1_coeffs: np.ndarray | None = None

    @property
    def mode(self) -> SymmetryMode:
        return _mode(self.fld.l, self.sqrt_minus1)

    def order(self) -> GeneratorOrder:
        return GeneratorOrder(tuple(g.label for g in self.generators))

    def coord_labels(self) -> list[str]:
        """One symbol coordinate per flagged noncomplex place, S first."""
        out = [sp.label for sp in self.s_places
               if sp.kind != "complex" and sp.flagged]
        out += [op.label for op in self.outside_places if op.flagged]
        return out

    def full_image(self, g: DatumGenerator) -> np.ndarray:
        if not self.s_places:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([g.images[i] for i in range(len(self.s_places))])

    def minus1_vector(self) -> np.ndarray:
        if not self.s_places:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([sp.minus1 for sp in self.s_places])

    def symbols(self) -> np.ndarray:
        """Local symbols {x_g, x_h} of all pairs, an int64 array of shape
        (generators, generators, coordinates) over coord_labels(): the local
        pairings at the S-places, then the tame symbols ord_t(g) frob_t(h) -
        ord_t(h) frob_t(g), whose diagonal in commutative mode is ord_t(x)
        frob_t(-1), as {x,x} = {-1,x}.  ord and frob are reduced mod l as
        Python ints before they become int64, so every product is exact."""
        p = self.fld.l
        gens = self.generators
        n = len(gens)
        out = np.zeros((n, n, len(self.coord_labels())), dtype=np.int64)
        c = 0
        for i, sp in enumerate(self.s_places):
            if sp.kind == "complex" or not sp.flagged:
                continue
            imgs = np.array([g.images[i] for g in gens], dtype=np.int64).reshape(n, sp.dim) % p
            out[:, :, c] = gf.bilinear(imgs, sp.gram % p, imgs.T, p)
            c += 1
        flagged = [op.label for op in self.outside_places if op.flagged]
        ords, frobs = (np.array([[m.get(t, 0) % p for t in flagged] for m in maps],
                                dtype=np.int64).reshape(n, len(flagged))
                       for maps in ([g.ord for g in gens], [g.frob for g in gens]))
        tame = ords[:, None] * frobs[None] - frobs[:, None] * ords[None]
        if self.mode is SymmetryMode.COMMUTATIVE and self.minus1_coeffs is not None:
            frob_minus1 = ((np.asarray(self.minus1_coeffs, dtype=np.int64) % p) @ frobs) % p
            tame[range(n), range(n)] = ords * frob_minus1
        out[:, :, c:] = tame % p
        return out

    def validate(self) -> list[str]:
        """Structural checks; returns a list of human-readable problems."""
        errors: list[str] = []
        p = self.fld.l
        outside_labels = {op.label for op in self.outside_places}
        if len(outside_labels) != len(self.outside_places):
            errors.append("duplicate outside place labels")
        if len({sp.label for sp in self.s_places}) != len(self.s_places):
            errors.append("duplicate S-place labels")
        for sp in self.s_places:
            if sp.kind == "complex":
                continue
            if self.mode is SymmetryMode.SUPERCOMMUTATIVE:
                if ((sp.gram + sp.gram.T) % p).any() or (sp.gram.diagonal() % p).any():
                    errors.append(f"place {sp.label}: pairing must be alternating")
            else:
                if sp.kind == "real" and not sp.flagged:
                    errors.append(f"place {sp.label}: a real place carries a symbol "
                                  "coordinate at l = 2 and must be flagged")
                want = (sp.gram @ sp.minus1) % p
                if (sp.gram.diagonal() % p != want).any():
                    errors.append(
                        f"place {sp.label}: diagonal does not match {{x,x}} = {{-1,x}}")
        ord_users: dict[str, list[str]] = {}
        unreadable = False
        for g in self.generators:
            if len(g.images) != len(self.s_places):
                errors.append(f"generator {g.label}: wrong number of local images")
                unreadable = True
                continue
            for i, sp in enumerate(self.s_places):
                if g.images[i].shape != (sp.dim,):
                    errors.append(f"generator {g.label}: bad image at {sp.label}")
                    unreadable = True
            for t, e in g.ord.items():
                if t not in outside_labels:
                    errors.append(f"generator {g.label}: ord at unknown place {t}")
                elif e % p:
                    ord_users.setdefault(t, []).append(g.label)
                    if e != 1:
                        errors.append(f"generator {g.label}: ord at {t} must be 1")
            for t in g.frob:
                if t not in outside_labels:
                    errors.append(f"generator {g.label}: frob at unknown place {t}")
        for t, users in ord_users.items():
            if len(users) > 1:
                errors.append(f"outside place {t} has several divisors: {users}")
        n = len(self.generators)
        if self.minus1_coeffs is not None and np.shape(self.minus1_coeffs) != (n,):
            errors.append(f"minus1_coeffs must have {n} entries, one per generator; "
                          f"got shape {np.shape(self.minus1_coeffs)}")
            unreadable = True
        if unreadable:
            return errors  # the checks below read every image and coefficient
        if self.minus1_coeffs is not None:
            tot = np.zeros(self.minus1_vector().shape[0], dtype=np.int64)
            for c, g in zip(self.minus1_coeffs, self.generators):
                tot = (tot + int(c) * self.full_image(g)) % p
            if (tot != self.minus1_vector() % p).any():
                errors.append("minus1_coeffs do not express the class of -1")
        if self.lagrangian is not None:
            lag = np.asarray(self.lagrangian, dtype=np.int64) % p
            big = self.block_gram()
            if lag.ndim != 2 or lag.shape[1] != big.shape[0]:
                errors.append(f"declared Lagrangian rows must have {big.shape[0]} "
                              f"entries, one per symbol coordinate; got shape {lag.shape}")
            else:
                if gf.bilinear(lag, big, lag.T, p).any():
                    errors.append("declared Lagrangian is not isotropic")
                for g in self.generators:
                    if not any(e % p for e in g.ord.values()):
                        if gf.solve_combination(lag, self.full_image(g), p) is None:
                            errors.append(
                                f"generator {g.label} has trivial divisor but image "
                                "outside the declared Lagrangian")
        if self.reciprocity:
            ok, bad = validate_reciprocity(self)
            if not ok:
                errors.append(f"reciprocity fails for pairs {bad[:8]}")
        return errors

    def block_gram(self) -> np.ndarray:
        return _block_diag([sp.gram for sp in self.s_places])


def validate_reciprocity(d: GlobalSymbolDatum) -> tuple[bool, list[tuple[str, str]]]:
    """Do all pairwise symbols sum to zero over the coordinates?"""
    comm = d.mode is SymmetryMode.COMMUTATIVE
    sums = np.triu(d.symbols().sum(axis=2) % d.fld.l, 0 if comm else 1)
    bad = [(d.generators[i].label, d.generators[j].label) for i, j in zip(*np.nonzero(sums))]
    return not bad, bad


def support(d: GlobalSymbolDatum, vec: np.ndarray) -> set[str]:
    """Places where a symbol vector (over coord_labels) is nonzero."""
    labels = d.coord_labels()
    vec = np.asarray(vec, dtype=np.int64) % d.fld.l
    if vec.shape != (len(labels),):
        raise ValueError("vector is not indexed by the symbol coordinates")
    return {labels[i] for i in np.nonzero(vec)[0]}


def predict_survivors(d: GlobalSymbolDatum) -> list[Monomial]:
    """Predicted surviving quadratic monomials by support counting.

    Scanning quadratics in ascending inverse-lex order, a monomial with
    symbol vector sigma is predicted to survive iff sigma != 0 and the
    places covered so far plus supp(sigma) can hold more than the number
    already accepted: the subspace supported on a place set Y has dimension
    #Y, minus one when reciprocity imposes the sum-zero constraint.
    """
    sym = d.symbols()
    covered: set[str] = set()
    accepted = 0
    out: list[Monomial] = []
    for m in normal_monomials(d.order(), 2, d.mode):
        g, h = m.word()
        supp = support(d, sym[g, h])
        if not supp:
            continue
        grown = covered | supp
        cap = len(grown) - (1 if d.reciprocity else 0)
        if cap > accepted:
            out.append(m)
            covered = grown
            accepted += 1
    return out


def datum_to_algebra(d: GlobalSymbolDatum, n_max: int) -> DegreewiseAlgebra:
    """The quadratic symbol algebra of the datum, degree by degree.

    A_2 is the span of the pairwise symbol vectors inside the coordinate
    space, with the reduced echelon basis of the normal-monomial symbols; for
    l = 2 without sqrt(-1) the higher components are one copy of F_2 per
    real place, with generators acting through their local signs.  Signs
    that miss a real place leave A_3 outside A_1 A_2: a ValueError.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    fld, p = d.fld, d.fld.l
    order = d.order()
    ngen = len(order)
    labels = d.coord_labels()
    sym = d.symbols()
    words = invlex_words(ngen, 2, d.mode is SymmetryMode.SUPERCOMMUTATIVE)
    basis, pivots = gf.rref(sym[words[:, 0], words[:, 1]], p)
    dim2 = basis.shape[0]
    # the basis is in reduced echelon form: a vector of its span has its
    # coordinates at the pivot columns
    coords = sym[:, :, pivots]
    if ((coords @ basis - sym) % p).any():
        raise ValueError("a symbol lies outside the span of the normal-monomial symbols")

    # x_g acts on degree n >= 2 through its sign at each real place
    real = [i for i, sp in enumerate(d.s_places) if sp.kind == "real"] \
        if d.mode is SymmetryMode.COMMUTATIVE else []
    r = len(real)
    sign = np.array([[g.images[i][0] for i in real] for g in d.generators],
                    dtype=np.int64).reshape(ngen, r) % p
    real_coord = [labels.index(d.s_places[i].label) for i in real]
    act2 = (sign[:, :, None] * basis[:, real_coord].T[None]) % p
    if n_max >= 3:
        reached = gf.rank(act2.transpose(1, 0, 2).reshape(r, ngen * dim2), p)
        if reached < r:
            raise ValueError(f"A_1 A_2 spans {reached} of the {r} dimensions of A_3, "
                             "one per real place: the generators miss a real place")

    dims = [1, ngen, dim2] + [r] * (n_max - 2)
    eye = np.eye(ngen, dtype=np.int64)
    gen_action = [[eye[:, g:g + 1] for g in range(ngen)],
                  [c.T.copy() for c in coords]]
    if n_max >= 3:
        gen_action.append(list(act2))
    gen_action += [[np.diag(s) for s in sign] for _ in range(3, n_max)]
    a = DegreewiseAlgebra(fld, d.mode, order, n_max, dims, gen_action)
    a.place_basis2 = basis
    a.place_labels = labels
    return a


# ---------------------------------------------------------------------------
# Frobenius completion


def _complete_frobs(raw, outside_order: list[str], big_gram: np.ndarray,
                    p: int, free: dict[tuple[str, str], int]):
    """Fill in Frobenius values so that every generator pair satisfies
    reciprocity.

    raw: list of (label, full image vector, ord place label or None).
    For a divisor-free generator b and an outside place t with divisor
    generator x, frob_t(b) = <w_b, w_x>.  For two divisor generators the
    Frobenius at the earlier place is a free parameter (from `free`,
    default 0) and the one at the later place is determined.
    """
    def pair(u, v):
        return int(gf.bilinear(u, big_gram, v, p))

    pos = {t: i for i, t in enumerate(outside_order)}
    frobs: dict[str, dict[str, int]] = {label: {} for label, _, _ in raw}
    ord_gens = [(label, w, t) for label, w, t in raw if t is not None]
    for label, w, t in ord_gens:
        frobs[label][t] = 0
        for lab2, w2, t2 in raw:
            if lab2 == label or t2 is not None:
                continue
            frobs[lab2][t] = pair(w2, w)
    for i in range(len(ord_gens)):
        for j in range(i + 1, len(ord_gens)):
            first, second = ord_gens[i], ord_gens[j]
            if pos[first[2]] > pos[second[2]]:
                first, second = second, first
            (la, wa, ta), (lb, wb, tb) = first, second
            f = free.get((ta, lb), 0) % p
            frobs[lb][ta] = f
            frobs[la][tb] = (f + pair(wa, wb)) % p
    for label in frobs:
        for t in outside_order:
            frobs[label].setdefault(t, 0)
    return frobs


def _offsets(s_places: list[SPlace]) -> dict[str, int]:
    """Where each place's block starts in the concatenated local coordinates."""
    offs, off = {}, 0
    for sp in s_places:
        offs[sp.label] = off
        off += sp.dim
    return offs


def _split_images(w: np.ndarray, s_places: list[SPlace]) -> list[np.ndarray]:
    offs = _offsets(s_places)
    return [np.array(w[offs[sp.label]:offs[sp.label] + sp.dim], dtype=np.int64)
            for sp in s_places]


def _assemble_datum(fld, sqrt_minus1, s_places, outside_labels, raw, free,
                    lagrangian=None, minus1_coeffs=None):
    big = _block_diag([sp.gram for sp in s_places])
    frobs = _complete_frobs(raw, outside_labels, big, fld.l, free)
    gens = []
    for label, w, t in raw:
        gens.append(DatumGenerator(
            label, _split_images(np.asarray(w) % fld.l, s_places),
            ord={t: 1} if t is not None else {},
            frob=frobs[label],
        ))
    return GlobalSymbolDatum(fld, sqrt_minus1, s_places,
                             [OutsidePlace(t) for t in outside_labels], gens,
                             lagrangian=lagrangian, minus1_coeffs=minus1_coeffs)


def _prediction_holds(d: GlobalSymbolDatum) -> bool:
    from .graded import surviving_monomials
    a = datum_to_algebra(d, 2)
    want = len(d.coord_labels()) - (1 if d.reciprocity else 0)
    if a.dims[2] != want:
        return False
    return predict_survivors(d) == surviving_monomials(a, 2)


# ---------------------------------------------------------------------------
# global builders


def _outside_counts(counts, names: str) -> tuple[int, int]:
    """The two outside place counts of a global builder."""
    counts = tuple(counts)
    if len(counts) != 2:
        raise ValueError(f"expected 2 outside place counts ({names}), got {len(counts)}")
    if min(counts) < 0:
        raise ValueError(f"outside place counts must be non-negative, got {counts}")
    return counts


def build_global_symplectic(num_s_places: int, num_outside=(1, 1), l: int = 3,
                            sqrt_minus1: bool = False, seed: int = 0):
    """Totally imaginary model: S-places are hyperbolic planes, the unit
    group maps onto a random Lagrangian, and the outside generators tie
    every place to the first one.  Returns (datum, generator order)."""
    from .symplectic import (hyperbolic_plane, lagrangian_transversal,
                             orthogonal_sum, random_lagrangian)
    if l == 2 and not sqrt_minus1:
        raise ValueError("the symplectic model needs odd l or sqrt(-1)")
    s = num_s_places
    n_q, n_r = _outside_counts(num_outside, "q, r")
    if s < 2 or n_q < 1:
        raise ValueError("need at least 2 S-places and one q-valuation")
    fld = PrimeField(l)
    for attempt in range(MAX_TRIES):
        rng = random.Random(f"symplectic:{seed}:{attempt}")
        w = orthogonal_sum([hyperbolic_plane(fld) for _ in range(s)])
        lag = random_lagrangian(w, rng.randrange(1 << 30))
        ms = lagrangian_transversal(w, lag)
        mrows = np.array([m.basis[0] for m in ms], dtype=np.int64)
        pairing = gf.bilinear(lag.basis, w.gram, mrows.T, l)
        if gf.rank(pairing, l) < s:
            continue
        brows = (gf.inverse(pairing, l) @ lag.basis) % l

        p_labels = [f"p{i}" for i in range(1, s)]
        q_labels = [f"q{k}" for k in range(1, n_q + 1)]
        r_labels = [f"r{k}" for k in range(1, n_r + 1)]
        outside = p_labels + q_labels + r_labels

        raw = [("b0", brows[0], None)]
        for i in range(1, s):
            raw.append((f"a_p{i}", (mrows[0] + mrows[i]) % l, p_labels[i - 1]))
        for k, t in enumerate(q_labels, start=1):
            raw.append((f"a_q{k}", mrows[0], t))
        for i in range(1, s):
            raw.append((f"b{i}", brows[i], None))
        for k, t in enumerate(r_labels, start=1):
            # the rows are independent: a zero image is a zero draw
            img = gf.random_combination(mrows, rng, l)
            while not img.any():
                img = gf.random_combination(mrows, rng, l)
            raw.append((f"a_r{k}", img, t))

        img_of = {label: vec for label, vec, _ in raw}
        free: dict[tuple[str, str], int] = {}
        # kill the Frobenius of each p_i and q_k on the earlier a_p's
        for j in range(1, s):
            for i in range(j + 1, s):
                free[(p_labels[j - 1], f"a_p{i}")] = \
                    (-w.pair(img_of[f"a_p{j}"], img_of[f"a_p{i}"])) % l
            for k in range(1, n_q + 1):
                free[(p_labels[j - 1], f"a_q{k}")] = \
                    (-w.pair(img_of[f"a_p{j}"], img_of[f"a_q{k}"])) % l
        # the first q-valuation sees every a_r
        for k in range(1, n_r + 1):
            free[(q_labels[0], f"a_r{k}")] = 1

        spl = [SPlace(f"v{i}", "nonarch", gram, np.zeros(2, dtype=np.int64))
               for i, gram in enumerate(_hyperbolic_blocks(s, True, l))]
        d = _assemble_datum(fld, sqrt_minus1, spl, outside, raw, free,
                            lagrangian=lag.basis)
        if _prediction_holds(d):
            return d, d.order()
    raise RuntimeError("could not build a spanning symplectic global model")


def _general_s_places(num_s: int, num_real: int):
    """The place u0 over 2 is sized so that the total S-pairing is
    even-dimensional and {-1,-1} sums to zero with the reals; the other
    nonarchimedean places are planes."""
    u0 = LocalCase("two_nonzero" if num_real % 2 else "two_zero", num_real + 2, 2)
    spl = []
    for i, case in enumerate([u0] + [LocalCase("two_zero", 2, 2)] * (num_s - num_real - 1)):
        gram, t = local_gram(case)
        spl.append(SPlace(f"u{i}", "nonarch", gram, np.eye(case.dim, dtype=np.int64)[t]))
    for i in range(1, num_real + 1):
        spl.append(SPlace(f"v{i}", "real", np.array([[1]]), np.array([1])))
    return spl


def _rand_solution(a: np.ndarray, b: np.ndarray, rng, p: int) -> np.ndarray | None:
    x0 = gf.solve_combination(a.T, b, p)
    if x0 is None:
        return None
    return (x0 + gf.random_combination(gf.nullspace(a, p), rng, p)) % p


def _build_unit_lagrangian(spl, rng, p, c_vec=None):
    """The images of -1, the a_v, and a K^+ basis, spanning a Lagrangian.

    Real components: -1 is negative everywhere, a_v exactly at v, the K^+
    elements nowhere.  Returns (minus1, [a_v], [k_plus basis]) or None; the
    k_plus list starts with c_vec when one is prescribed.
    """
    dim = sum(sp.dim for sp in spl)
    nS = len(spl)
    big = _block_diag([sp.gram for sp in spl])
    minus1 = np.concatenate([sp.minus1 for sp in spl])
    offs = _offsets(spl)
    real = [sp for sp in spl if sp.kind == "real"]
    na_cols = [offs[sp.label] + k for sp in spl if sp.kind == "nonarch"
               for k in range(sp.dim)]
    real_cols = [offs[sp.label] for sp in real]
    q_row = (big @ minus1) % p  # <-1, .> as a row over the full space
    a_vs = []
    rows = [q_row[na_cols]]
    rhs = [1]
    if c_vec is not None:
        rows.append(((big @ c_vec) % p)[na_cols])
        rhs.append(0)
    for sp in real:
        z = _rand_solution(np.array(rows), np.array(rhs), rng, p)
        if z is None:
            return None
        av = np.zeros(dim, dtype=np.int64)
        av[na_cols] = z
        av[offs[sp.label]] = 1
        a_vs.append(av)
        rows.append(((big @ av) % p)[na_cols])
        rhs.append(0)
    span = RowSpan(dim, p)
    if c_vec is not None:
        span.add(c_vec)
    span.add(minus1)
    for av in a_vs:
        span.add(av)
    k_plus = [] if c_vec is None else [np.array(c_vec, dtype=np.int64)]
    k_plus.append((minus1 + sum(a_vs)) % p)
    while span.dim < nS:
        cons = np.concatenate(
            [(span.matrix() @ big) % p,
             np.eye(dim, dtype=np.int64)[real_cols]], axis=0)
        ns = gf.nullspace(cons, p)
        for _ in range(64):
            z = gf.random_combination(ns, rng, p)
            if not span.contains(z):
                break
        else:
            return None
        span.add(z)
        k_plus.append(z)
    lag = span.matrix()
    if gf.bilinear(lag, big, lag.T, p).any():
        return None
    return minus1, a_vs, k_plus, lag


def _orthogonal_to_minus1(sp: SPlace, rng, p: int, tries: int,
                          accept) -> np.ndarray | None:
    """A random nonzero local class z with {-1,z} = 0 at the place that
    passes accept(z), or None after `tries` draws."""
    ns = gf.nullspace(((sp.gram @ sp.minus1) % p).reshape(1, -1), p)
    for _ in range(tries):
        z = gf.random_combination(ns, rng, p)
        if z.any() and accept(z):
            return z
    return None


def _general_core(num_s_places, num_real_places, outside_counts, seed, tag,
                  num_c_places=0):
    """Shared skeleton of the l=2 global builders, with or without a
    distinguished annihilator element c."""
    fld = PrimeField(2)
    p = 2
    n_ra, n_rb = _outside_counts(outside_counts, "r', r''")
    na = num_s_places - num_real_places
    if num_real_places < 1 or na < 1 + (1 if num_c_places else 0):
        raise ValueError("need at least one real and enough nonarch places")
    if num_c_places and not (1 <= num_c_places <= na - 1):
        raise ValueError("c must be supported on a proper nonempty set of places")
    if n_rb > 0 and n_ra < 1:
        raise ValueError("each r'' valuation needs an r' partner")
    for attempt in range(MAX_TRIES):
        rng = random.Random(f"{tag}:{seed}:{attempt}")
        spl = _general_s_places(num_s_places, num_real_places)
        dim = sum(sp.dim for sp in spl)
        offs = _offsets(spl)
        nonarch = [sp for sp in spl if sp.kind == "nonarch"]
        c_vec = None
        c_places: list[str] = []
        if num_c_places:
            # support c on the last few nonarch places, away from u0
            c_vec = np.zeros(dim, dtype=np.int64)
            for sp in nonarch[-num_c_places:]:
                # at l = 2, {z,z} = {-1,z}: z is isotropic
                z = _orthogonal_to_minus1(sp, rng, p, 64, lambda z: True)
                if z is None:
                    break
                c_vec[offs[sp.label]:offs[sp.label] + sp.dim] = z
                c_places.append(sp.label)
            if len(c_places) != num_c_places:
                continue
        built = _build_unit_lagrangian(spl, rng, p, c_vec=c_vec)
        if built is None:
            continue
        minus1, a_vs, k_plus, lag = built
        q_places = [sp for sp in nonarch if sp.label not in c_places]
        w_us = {}
        for sp in q_places:
            # w_u pairs nontrivially with K^+ at its place
            o = offs[sp.label]
            z = _orthogonal_to_minus1(
                sp, rng, p, 128,
                lambda z: any(gf.bilinear(k[o:o + sp.dim], sp.gram, z, p) for k in k_plus))
            if z is None:
                break
            w_us[sp.label] = np.zeros(dim, dtype=np.int64)
            w_us[sp.label][o:o + sp.dim] = z
        if len(w_us) != len(q_places):
            continue

        q_labels = [f"q_{sp.label}" for sp in q_places]
        ra_labels = [f"ra{k}" for k in range(1, n_ra + 1)]
        rb_labels = [f"rb{k}" for k in range(1, n_rb + 1)]
        outside = ["p"] + q_labels + ra_labels + rb_labels
        real_cols = [offs[sp.label] for sp in spl if sp.kind == "real"]

        def rand_kplus_image():
            z = np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64)
            z[real_cols] = 0
            return z

        raw = []
        if c_vec is not None:
            raw.append(("c", c_vec, None))
        raw.append(("a_p", np.zeros(dim, dtype=np.int64), "p"))
        for sp, t in zip(q_places, q_labels):
            raw.append((f"a_{t}", w_us[sp.label], t))
        k_gens = k_plus[1:] if c_vec is not None else k_plus
        for j, k in enumerate(k_gens, start=1):
            raw.append((f"k{j}", k, None))
        for k, t in enumerate(ra_labels, start=1):
            img = np.zeros(dim, dtype=np.int64) if k == 1 else rand_kplus_image()
            raw.append((f"a_{t}", img, t))
        for t in rb_labels:
            raw.append((f"a_{t}", rand_kplus_image(), t))
        for i, av in enumerate(a_vs, start=1):
            raw.append((f"a_v{i}", av, None))

        free: dict[tuple[str, str], int] = {}
        for t in q_labels:
            free[("p", f"a_{t}")] = 1      # every q sees a_p
        for t in ra_labels:
            free[("p", f"a_{t}")] = 1      # r' valuations see a_p ...
        for t in rb_labels:
            free[("p", f"a_{t}")] = 0      # ... and r'' valuations do not
            free[(ra_labels[0], f"a_{t}")] = 1 if n_ra else 0
            for q in q_labels:
                free[(q, f"a_{t}")] = rng.randrange(p)

        minus1_coeffs = np.zeros(len(raw), dtype=np.int64)
        gen_pos = {label: i for i, (label, _, _) in enumerate(raw)}
        minus1_coeffs[gen_pos["k1"]] = 1
        for i in range(1, len(a_vs) + 1):
            minus1_coeffs[gen_pos[f"a_v{i}"]] = 1

        d = _assemble_datum(fld, False, spl, outside, raw, free,
                            lagrangian=lag, minus1_coeffs=minus1_coeffs)
        if _prediction_holds(d):
            return d, d.order()
    raise RuntimeError(f"could not build a spanning {tag} global model")


def build_global_general(num_s_places: int, num_real_places: int,
                         outside_counts=(1, 1), l: int = 2, seed: int = 0):
    """l = 2 model with real places.  Returns (datum, generator order)."""
    if l != 2:
        raise ValueError("the general model with real places requires l = 2")
    return _general_core(num_s_places, num_real_places, outside_counts, seed,
                         tag="general")


def build_annihilator(num_s_places: int, num_real_places: int,
                      num_c_places: int = 1, outside_counts=(1, 1),
                      l: int = 2, seed: int = 0):
    """l = 2 model with a distinguished c, {c,c} = 0, supported on part of S.
    Returns (datum, generator order); c is the first generator."""
    if l != 2:
        raise ValueError("the annihilator model requires l = 2")
    if num_c_places < 1:
        raise ValueError("the annihilator model needs c on at least one place")
    return _general_core(num_s_places, num_real_places, outside_counts, seed,
                         tag="annihilator", num_c_places=num_c_places)


def build_noroot(num_u: int, num_r: int, l: int = 3, seed: int = 0,
                 variant: int = 1, num_c_places: int = 1):
    """Model without global l-th roots of unity: only flagged places carry
    symbol coordinates and no reciprocity constraint ties them together.

    variant 1 matches every flagged place with a dedicated divisor pair;
    variant 2 runs the same construction around a distinguished divisor-free
    element c.  Returns (datum, generator order)."""
    if l == 2:
        raise ValueError("the noroot model requires odd l")
    if num_u < 1 or num_r < 0 or variant not in (1, 2):
        raise ValueError("bad noroot parameters")
    if variant == 2 and not 0 <= num_c_places <= num_u:
        raise ValueError("bad c support size")
    fld = PrimeField(l)
    rng = random.Random(f"noroot:{variant}:{seed}")
    spl = [SPlace(f"u{i}", "nonarch", gram, np.zeros(2, dtype=np.int64))
           for i, gram in enumerate(_hyperbolic_blocks(num_u, True, l))]
    dim = 2 * num_u

    def local(i, vec):
        out = np.zeros(dim, dtype=np.int64)
        out[2 * i:2 * i + 2] = vec
        return out

    r_labels = [f"r{k}" for k in range(1, num_r + 1)]
    q_labels = [f"q{k}" for k in range(1, num_r + 1)]

    gens: list[DatumGenerator] = []
    outside: list[OutsidePlace] = []

    def add_gen(label, w, ord_place, frob_r):
        gens.append(DatumGenerator(
            label, _split_images(np.asarray(w) % l, spl),
            ord={ord_place: 1} if ord_place else {},
            frob={t: frob_r.get(t, 0) for t in r_labels},
        ))

    if variant == 1:
        u_prime: list[int] = []
        u_dprime = list(range(num_u))
    else:
        u_prime = list(range(num_c_places))
        u_dprime = list(range(num_c_places, num_u))
        c_vec = np.zeros(dim, dtype=np.int64)
        for i in u_prime:
            c_vec += local(i, [1, 0])
        add_gen("c", c_vec, None,
                {t: rng.randrange(l) for t in r_labels})
        for i in u_prime:
            outside.append(OutsidePlace(f"pa{i}", False))
            add_gen(f"a_pa{i}", local(i, [0, 1]), f"pa{i}", {})
    if variant == 1:
        for k, (q, rl) in enumerate(zip(q_labels, r_labels)):
            outside.append(OutsidePlace(q, False))
            add_gen(f"a_{q}", np.zeros(dim), q, {rl: 1})
    for i in u_dprime:
        outside.append(OutsidePlace(f"pb{i}", False))
        outside.append(OutsidePlace(f"pc{i}", False))
        add_gen(f"a_pb{i}", local(i, [1, 0]), f"pb{i}", {})
        add_gen(f"a_pc{i}", local(i, [0, 1]), f"pc{i}", {})
    if variant == 2:
        for q, rl in zip(q_labels, r_labels):
            outside.append(OutsidePlace(q, False))
            add_gen(f"a_{q}", np.zeros(dim), q, {rl: 1})
    k1 = np.array([rng.randrange(l) for _ in range(dim)], dtype=np.int64)
    add_gen("k1", k1, None, {t: rng.randrange(l) for t in r_labels})
    for rl in r_labels:
        outside.append(OutsidePlace(rl, True))
        add_gen(f"a_{rl}", np.zeros(dim), rl, {})

    d = GlobalSymbolDatum(fld, False, spl, outside, gens, reciprocity=False)
    return d, d.order()


# ---------------------------------------------------------------------------
# JSON serialization


def datum_to_json(d: GlobalSymbolDatum) -> dict:
    return {
        "l": d.fld.l,
        "sqrt_minus1": d.sqrt_minus1,
        "reciprocity": d.reciprocity,
        "s_places": [
            {"label": sp.label, "kind": sp.kind, "flagged": sp.flagged,
             "gram": sp.gram.tolist(), "minus1": sp.minus1.tolist()}
            for sp in d.s_places
        ],
        "outside_places": [
            {"label": op.label, "flagged": op.flagged} for op in d.outside_places
        ],
        "generators": [
            {"label": g.label,
             "images": [v.tolist() for v in g.images],
             "ord": {t: int(e) for t, e in sorted(g.ord.items()) if e},
             "frob": {t: int(e) for t, e in sorted(g.frob.items())}}
            for g in d.generators
        ],
        "lagrangian": None if d.lagrangian is None
        else np.asarray(d.lagrangian).tolist(),
        "minus1_coeffs": None if d.minus1_coeffs is None
        else np.asarray(d.minus1_coeffs).tolist(),
    }


def _json_bool(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"{what} must be true or false, got {value!r}")
    return value


def _json_str(value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


def _json_ints(value, what: str) -> np.ndarray:
    """Nested lists of integers as an int64 array (np.array alone would
    truncate floats and read booleans as 0 and 1)."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        else:
            _json_int(v, what)
    return np.array(value, dtype=np.int64)


def _json_int_map(value, what: str) -> dict[str, int]:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {value!r}")
    return {t: _json_int(e, what) for t, e in value.items()}


def datum_from_json(obj: dict) -> GlobalSymbolDatum:
    fld = PrimeField(_json_int(obj["l"], "l"))
    p = fld.l
    s_places = []
    for sp in obj["s_places"]:
        minus1 = _json_ints(sp["minus1"], "minus1") % p
        s_places.append(SPlace(
            _json_str(sp["label"], "label"), sp.get("kind", "nonarch"),
            _json_ints(sp["gram"], "gram").reshape(len(minus1), len(minus1)) % p,
            minus1, _json_bool(sp.get("flagged", True), "flagged")))
    outside = [OutsidePlace(_json_str(op["label"], "label"),
                            _json_bool(op.get("flagged", True), "flagged"))
               for op in obj["outside_places"]]
    gens = [
        DatumGenerator(_json_str(g["label"], "label"),
                       [_json_ints(v, "images") % p for v in g["images"]],
                       _json_int_map(g.get("ord", {}), "ord"),
                       _json_int_map(g.get("frob", {}), "frob"))
        for g in obj["generators"]
    ]
    lag = obj.get("lagrangian")
    m1 = obj.get("minus1_coeffs")
    return GlobalSymbolDatum(
        fld, _json_bool(obj.get("sqrt_minus1", False), "sqrt_minus1"),
        s_places, outside, gens,
        reciprocity=_json_bool(obj.get("reciprocity", True), "reciprocity"),
        lagrangian=None if lag is None else _json_ints(lag, "lagrangian") % p,
        minus1_coeffs=None if m1 is None else _json_ints(m1, "minus1_coeffs") % p,
    )
