"""Reference quantities assembled cell by cell from the discrete definition.

Nothing here goes through plapopt's operators, energies or solvers: every
quantity is written out from the grid convention (forward differences
from each cell's lower corner node, anchor-node quadrature, zero
Dirichlet boundary, nodes touching a blocked cell pinned to zero), so an
agreement between this module and the program is a two-sided check.

Node arrays are padded: shape (n + 1,) * dim with the boundary nodes at
index 0 and n, so that cell c has its anchor at padded index c.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh as _dense_eigh
from scipy.sparse.linalg import eigsh as _eigsh


class Problem:
    """One discrete problem: box, p, measure and weights, as plain arrays.

    Cell arrays have shape (n,) * dim; atoms are (flat interior node,
    mass) pairs in the interior-node C order the program uses.  For
    p < 2 the gradient weight |grad u|^(p-2) is smoothed to
    (|grad u|^2 + 1e-12 h^2)^((p-2)/2), the regularization the program
    documents for its gradients and stops its solvers on; near a
    vanishing gradient it moves the residual by about 1e-8 relative.
    """

    def __init__(self, dim, n, lengths, p, V=0.0, blocked=None,
                 mu_atoms=(), w1=1.0, w1_atoms=(), w2=0.0):
        self.dim, self.n, self.p = dim, n, float(p)
        self.h = tuple(L / n for L in lengths)
        self.vol = math.prod(self.h)
        self.eps = 1e-12 * min(self.h) ** 2 if self.p < 2.0 else 0.0
        shape = (n,) * dim
        self.V = np.broadcast_to(np.asarray(V, dtype=float), shape)
        self.w1 = np.broadcast_to(np.asarray(w1, dtype=float), shape)
        self.w2 = np.broadcast_to(np.asarray(w2, dtype=float), shape)
        self.blocked = np.zeros(shape, dtype=bool) if blocked is None \
            else np.asarray(blocked, dtype=bool).reshape(shape)
        self.mu_atoms = tuple(mu_atoms)
        self.w1_atoms = tuple(w1_atoms)
        self.cells = list(itertools.product(range(n), repeat=dim))
        self.pinned = np.zeros((n + 1,) * dim, dtype=bool)
        for c in self.cells:
            if self.blocked[c]:
                for corner in itertools.product((0, 1), repeat=dim):
                    self.pinned[tuple(i + d for i, d in zip(c, corner))] = True

    # index maps ---------------------------------------------------------

    def interior(self):
        """Padded indices of the interior nodes, in flat C order."""
        return list(itertools.product(range(1, self.n), repeat=self.dim))

    def pad(self, flat_values) -> np.ndarray:
        out = np.zeros((self.n + 1,) * self.dim)
        inner = (slice(1, self.n),) * self.dim
        out[inner] = np.asarray(flat_values, dtype=float).reshape(
            (self.n - 1,) * self.dim)
        return out

    def unpad(self, padded) -> np.ndarray:
        inner = (slice(1, self.n),) * self.dim
        return np.asarray(padded)[inner].reshape(-1)

    def _atom_node(self, flat_node):
        return tuple(int(i) + 1 for i in np.unravel_index(
            int(flat_node), (self.n - 1,) * self.dim))

    def _shift(self, c, axis):
        return tuple(i + (1 if a == axis else 0) for a, i in enumerate(c))

    # energies and their first variations -------------------------------

    def gradient(self, u, c):
        """Forward-difference gradient of padded u on cell c."""
        return [(u[self._shift(c, a)] - u[c]) / self.h[a]
                for a in range(self.dim)]

    def f_energy(self, flat_u) -> float:
        """(1/p) sum vol |grad u|^p + (1/p) sum vol V |u|^p + atoms."""
        u = self.pad(flat_u)
        if np.any(u[self.pinned] != 0.0):
            return math.inf
        p, total = self.p, 0.0
        for c in self.cells:
            if not self.blocked[c]:
                g = self.gradient(u, c)
                total += self.vol * math.hypot(*g) ** p
                total += self.vol * self.V[c] * abs(u[c]) ** p
        for node, mass in self.mu_atoms:
            total += mass * abs(u[self._atom_node(node)]) ** p
        return total / p

    def f_gradient(self, flat_u) -> np.ndarray:
        """Node functional f'(u), zero on pinned nodes; padded array."""
        u = self.pad(flat_u)
        p = self.p
        out = np.zeros_like(u)
        for c in self.cells:
            if self.blocked[c]:
                continue
            g = self.gradient(u, c)
            s2 = sum(x * x for x in g) + self.eps
            weight = s2 ** ((p - 2.0) / 2.0) if s2 > 0.0 else 0.0
            for a in range(self.dim):
                flux = self.vol * weight * g[a] / self.h[a]
                out[self._shift(c, a)] += flux
                out[c] -= flux
            out[c] += self.vol * self.V[c] * _odd(u[c], p)
        for node, mass in self.mu_atoms:
            k = self._atom_node(node)
            out[k] += mass * _odd(u[k], p)
        out[self.pinned] = 0.0
        return out

    def g_gradient(self, flat_u) -> np.ndarray:
        """Node functional (g1 - g2)'(u), zero on pinned nodes; padded."""
        u = self.pad(flat_u)
        out = np.zeros_like(u)
        for c in self.cells:
            out[c] += self.vol * (self.w1[c] - self.w2[c]) * _odd(u[c], self.p)
        for node, mass in self.w1_atoms:
            k = self._atom_node(node)
            out[k] += mass * _odd(u[k], self.p)
        out[self.pinned] = 0.0
        return out

    def load(self) -> np.ndarray:
        """Node functional of v -> sum vol v(anchor), zero on pinned nodes."""
        out = np.zeros((self.n + 1,) * self.dim)
        for c in self.cells:
            out[c] += self.vol
        out[self.pinned] = 0.0
        return out

    # norms ----------------------------------------------------------------

    def dual_norm(self, padded_r) -> float:
        """Discrete L^q norm, q = p/(p-1), of a node functional."""
        q = self.p / (self.p - 1.0)
        r = self.unpad(padded_r)
        return float((self.vol * np.sum(np.abs(r / self.vol) ** q))
                     ** (1.0 / q))

    def lp_norm(self, flat_u) -> float:
        u = self.pad(flat_u)
        return float(sum(self.vol * abs(u[c]) ** self.p
                         for c in self.cells) ** (1.0 / self.p))

    def residual(self, flat_u, lam) -> float:
        """Dual norm of f'(u) - lam (g1 - g2)'(u)."""
        return self.dual_norm(self.f_gradient(flat_u)
                              - lam * self.g_gradient(flat_u))

    def torsion_residual(self, flat_w) -> tuple[float, float]:
        """(dual norm of f'(w) - load, dual norm of load)."""
        load = self.load()
        return self.dual_norm(self.f_gradient(flat_w) - load), \
            self.dual_norm(load)

    # the p = 2 pencil ---------------------------------------------------

    def pencil(self):
        """p = 2 stiffness and weight matrices on the free interior nodes.

        Returns sparse (A, B, free) with u^T A u = 2 f(u) and
        u^T B u = 2 (g1 - g2)(u); free lists the kept interior nodes in
        flat order.  Each cell adds its gradient and anchor terms.
        """
        nodes = self.interior()
        index = {k: i for i, k in enumerate(nodes)}
        rows, cols, avals, bvals = [], [], [], []

        def add(i, j, a, b):
            if i in index and j in index:
                rows.append(index[i])
                cols.append(index[j])
                avals.append(a)
                bvals.append(b)

        for c in self.cells:
            if not self.blocked[c]:
                for a in range(self.dim):
                    ends = ((self._shift(c, a), 1.0), (c, -1.0))
                    for (i, si), (j, sj) in itertools.product(ends, ends):
                        add(i, j, self.vol * si * sj / self.h[a] ** 2, 0.0)
            add(c, c, self.vol * self.V[c],
                self.vol * (self.w1[c] - self.w2[c]))
        for node, mass in self.mu_atoms:
            k = self._atom_node(node)
            add(k, k, mass, 0.0)
        for node, mass in self.w1_atoms:
            k = self._atom_node(node)
            add(k, k, 0.0, mass)
        size = len(nodes)
        A = sp.csr_matrix((avals, (rows, cols)), shape=(size, size))
        B = sp.csr_matrix((bvals, (rows, cols)), shape=(size, size))
        free = np.array([i for i, k in enumerate(nodes)
                         if not self.pinned[k]], dtype=int)
        return A[free][:, free], B[free][:, free], free


def pencil_eigenvalues(A, B, m: int, dense: bool = False) -> list[float]:
    """The m smallest positive lambda = 1/beta of B u = beta A u, ascending.

    A is symmetric positive definite under the Dirichlet condition, so the
    Lanczos mode with M = A applies to any sign of B; ``dense`` solves the
    same pencil with LAPACK instead.  Fewer than m values are returned
    when the pencil has fewer positive directions.
    """
    if dense:
        beta = _dense_eigh(B.toarray(), A.toarray(), eigvals_only=True)
    else:
        size = A.shape[0]
        v0 = np.full(size, 1.0 / math.sqrt(size))
        beta = _eigsh(B.tocsc(), k=min(m, size - 1), M=A.tocsc(),
                      which="LA", v0=v0, tol=0.0, return_eigenvectors=False)
    beta = np.sort(beta)[::-1]
    top = max(abs(beta[0]), 1e-300)
    return [1.0 / b for b in beta[:m] if b > 1e-13 * top]


def square_dirichlet_eigenvalues(n: int, length: float, m: int) -> list[float]:
    """Closed form of the discrete Dirichlet Laplacian of a square.

    Forward differences with anchor quadrature make the 2D pencil the
    Kronecker sum of two 1D second-difference matrices, so the spectrum is
    (4/h^2)(sin^2(i pi/2n) + sin^2(j pi/2n)) for 1 <= i, j <= n - 1.
    """
    h = length / n
    one_d = [4.0 / h ** 2 * math.sin(k * math.pi / (2 * n)) ** 2
             for k in range(1, n)]
    return sorted(a + b for a in one_d for b in one_d)[:m]


def interval_dirichlet_eigenvalues(n: int, length: float, m: int) -> list[float]:
    """Closed form (4/h^2) sin^2(k pi/2n) of the 1D discrete Laplacian."""
    h = length / n
    return [4.0 / h ** 2 * math.sin(k * math.pi / (2 * n)) ** 2
            for k in range(1, m + 1)]


def torsion_max_1d(p: float, length: float = 1.0) -> float:
    """Maximum of the continuous torsion function of (0, L) for -Delta_p.

    Integrating (|w'|^(p-2) w')' = -1 with w' = 0 at the midpoint gives
    w(L/2) = ((p-1)/p) (L/2)^(p/(p-1)).
    """
    return (p - 1.0) / p * (length / 2.0) ** (p / (p - 1.0))


def _odd(x: float, p: float) -> float:
    return math.copysign(abs(x) ** (p - 1.0), x) if x != 0.0 else 0.0
