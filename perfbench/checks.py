"""Independent checks of the outputs, outside the timed sections.

Ranks and inverses come from sympy's DomainMatrix; products and formulas
are the benchmark's own.  Nothing here calls nestalg.  Each check returns
a list of problems (empty when the output is right), so the self-tests
can show that a corrupted output is rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction

from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

import gen


def _domain(p):
    return QQ if p is None else GF(p)


def _dm(rows, ncols: int, p):
    dom = _domain(p)
    if p is None:
        data = [[dom(x.numerator, x.denominator) for x in row] for row in rows]
    else:
        data = [[dom(int(x)) for x in row] for row in rows]
    return DomainMatrix(data, (len(rows), ncols), dom)


def rank(rows, ncols: int, p=None) -> int:
    if not rows:
        return 0
    return _dm(rows, ncols, p).rank()


def inverse(rows, p=None):
    """sympy's inverse, back as Fractions (Q) or ints (GF(p))."""
    inv = _dm(rows, len(rows), p).inv().to_list()
    if p is None:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in inv]
    return [[int(x) % p for x in row] for row in inv]


def parse_matrix(rows, p=None):
    """A CLI JSON matrix back into Fractions (Q) or ints (GF(p))."""
    return [[Fraction(x) if p is None else int(x) % p for x in row] for row in rows]


def flatten(m) -> list:
    return [x for row in m for x in row]


def _integral(m, p=None):
    """m scaled by the lcm of its denominators; the zero pattern is unchanged."""
    if p is not None:
        return [[int(x) % p for x in row] for row in m]
    d = 1
    for row in m:
        for x in row:
            d = math.lcm(d, x.denominator)
    return [[int(x * d) for x in row] for row in m]


def _imatmul(a, b, p=None):
    cols = list(zip(*b))
    out = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
    return out if p is None else [[x % p for x in row] for row in out]


def block_problems(mats, s, s_inv, parts, strict: bool, p=None, what="basis") -> list[str]:
    """Every S^-1 B S must be (strictly) block upper triangular for the atoms.
    Computed on integer multiples of S^-1 and B, which have the same zeros."""
    level = [k for k, a in enumerate(parts) for _ in range(a)]
    k_inv, s_int = _integral(s_inv, p), _integral(s, p)
    out = []
    for idx, b in enumerate(mats):
        c = _imatmul(_imatmul(k_inv, _integral(b, p), p), s_int, p)
        for i, row in enumerate(c):
            bad = [j for j, x in enumerate(row)
                   if x and (level[i] > level[j] or (strict and level[i] == level[j]))]
            if bad:
                kind = "strictly " if strict else ""
                out.append(f"{what}[{idx}] is not {kind}block upper triangular in the flag's basis")
                break
    return out


def basis_problems(mats, expected_dim: int, s, s_inv, parts, strict: bool, p=None,
                   what="basis") -> list[str]:
    """Right count, linearly independent, and inside the (strict) block algebra;
    together these say the basis spans exactly that space."""
    n = len(s)
    out = []
    if len(mats) != expected_dim:
        out.append(f"{what} has {len(mats)} elements, the atom formula gives {expected_dim}")
    if mats and rank([flatten(m) for m in mats], n * n, p) != len(mats):
        out.append(f"{what} elements are linearly dependent")
    return out + block_problems(mats, s, s_inv, parts, strict, p, what)


def radical_problems(rep: dict, parts, s, s_inv, alg_basis=None, p=None) -> list[str]:
    """A radical report (as plain data) against the nest's atoms and flag;
    the algebra basis is checked too when given."""
    alg_dim, strict_dim = gen.atom_dims(parts)
    out = []
    if rep["alg_dim"] != alg_dim:
        out.append(f"alg_dim {rep['alg_dim']} != {alg_dim}")
    if rep["nilpotency_index"] != len(parts):
        out.append(f"nilpotency index {rep['nilpotency_index']} != {len(parts)} atoms")
    if rep["equal"] is not True:
        out.append("radical and strict ideal reported unequal")
    if alg_basis is not None:
        out += basis_problems(alg_basis, alg_dim, s, s_inv, parts, False, p, "algebra basis")
    out += basis_problems(rep["strict_basis"], strict_dim, s, s_inv, parts, True, p,
                          "strict ideal basis")
    out += basis_problems(rep["radical_basis"], strict_dim, s, s_inv, parts, True, p,
                          "radical basis")
    return out


def chain_count(n: int, q: int = 2) -> int:
    """Number of chains of proper nonzero subspaces of GF(q)^n: the sum over
    compositions of n of the Gaussian multinomial coefficients."""
    def qfact(m):
        out = 1
        for i in range(1, m + 1):
            out *= (q ** i - 1) // (q - 1)
        return out

    total = 0
    for parts in gen.compositions(n):
        den = 1
        for a in parts:
            den *= qfact(a)
        total += qfact(n) // den
    return total


def rank_one_count(dims, q: int = 2) -> int:
    """Rank-one members x (x) phi of the algebra of the chain with these member
    dimensions: x ranges over N_k minus N_(k-1), phi over the nonzero
    functionals killing N_(k-1)."""
    n = dims[-1]
    return sum((q ** dims[k] - q ** dims[k - 1]) * (q ** (n - dims[k - 1]) - 1)
               for k in range(1, len(dims)))


def reflexivity_problems(corpus_counts: dict, results: list) -> list[str]:
    """corpus_counts: n -> number of chains; results: one entry per chain of
    (chain, alg_dim, rank_ones, lattice_from_algebra, lattice_from_rank_ones),
    the chain and lattices as lists of (dim, basis rows)."""
    out = []
    for n, count in sorted(corpus_counts.items()):
        if count != chain_count(n):
            out.append(f"{count} chains of GF(2)^{n}, the Gaussian count is {chain_count(n)}")
    for chain, alg_dim, ones, lat_alg, lat_ones in results:
        dims = [d for d, _ in chain]
        parts = tuple(b - a for a, b in zip(dims, dims[1:]))
        if lat_alg != chain:
            out.append(f"lattice from the algebra differs from the chain with dims {dims}")
        if lat_ones != chain:
            out.append(f"lattice from the rank-ones differs from the chain with dims {dims}")
        if alg_dim != gen.atom_dims(parts)[0]:
            out.append(f"algebra dim {alg_dim} wrong for dims {dims}")
        if ones != rank_one_count(dims):
            out.append(f"{ones} rank-one members for dims {dims}, expected {rank_one_count(dims)}")
    return out


def in_span(v, rows, n: int, p=None) -> bool:
    r = rank(rows, n, p)
    return rank(list(rows) + [list(v)], n, p) == r


def idempotent_problems(proj, subspace_rows, p=None) -> list[str]:
    n = len(proj)
    out = []
    if gen.matmul(proj, proj, p) != proj:
        out.append("P^2 != P")
    cols = [list(c) for c in zip(*proj)]
    d = rank(subspace_rows, n, p)
    if rank(cols, n, p) != d or rank(cols + list(subspace_rows), n, p) != d:
        out.append("range of P is not the requested subspace")
    return out


def rank_decompose_problems(summands, t, p=None) -> list[str]:
    n = len(t)
    out = []
    if any(rank(s, n, p) != 1 for s in summands):
        out.append("a summand does not have rank 1")
    total = [[gen.norm(0, p)] * n for _ in range(n)]
    for s in summands:
        total = [[gen.norm(a + b, p) for a, b in zip(r1, r2)] for r1, r2 in zip(total, s)]
    if total != t:
        out.append("summands do not add up to the operator")
    if len(summands) != rank(t, n, p):
        out.append("summand count differs from the operator's rank")
    return out


def witness_problems(w, x, image, subspace_rows, p=None) -> list[str]:
    n = len(w)
    out = []
    if rank(w, n, p) != 1:
        out.append("witness is not rank one")
    if [row[0] for row in gen.matmul(w, [[v] for v in x], p)] != list(image):
        out.append("reported image is not W x")
    if not in_span(x, subspace_rows, n, p):
        out.append("moved vector lies outside the subspace")
    if in_span(image, subspace_rows, n, p):
        out.append("witness does not move the subspace")
    return out


def dual_problems(orig_chain, dual_chain, n: int, p=None) -> list[str]:
    """Dual member k must have dimension n - dim of original member K-1-k and
    annihilate it."""
    out = []
    k = len(orig_chain)
    if len(dual_chain) != k:
        return [f"dual has {len(dual_chain)} members, expected {k}"]
    for i, member in enumerate(orig_chain):
        ann = dual_chain[k - 1 - i]
        if rank(ann, n, p) + rank(member, n, p) != n:
            out.append(f"dual member {k - 1 - i} does not complement member {i}")
        if any(gen.norm(sum(a * b for a, b in zip(phi, v)), p) for phi in ann for v in member):
            out.append(f"dual member {k - 1 - i} does not annihilate member {i}")
    return out
