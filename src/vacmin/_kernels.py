"""Hot numeric kernels: the interior operator that forms every discrete
energy, gradient and residual, the solver's preconditioner, and the one
first-derivative pass.

Grid arrays are channels-first: field values have shape (m, *grid.shape),
masks are int8 with 0=exterior, 1=interior, 2=boundary. The discrete
energy is the forward-difference edge sum

    E = h^n * [ sum_edges 1/2 |u_b - u_a|^2 / h^2  +  sum_interior W(u) ]

over edges with at least one interior endpoint; its exact gradient with
respect to interior values is h^n * (-lap_h(u) + gradW(u)).
``InteriorOperator`` is the one implementation of both and the one list
of those edges (``edges``): it holds the field's boundary values pinned
and evaluates E, its gradient and the solver's line search on the
interior values alone. ``energy_only`` and
``energy_and_grad`` apply it to a full-cube field with that field's own
boundary values. Every inner product is a single-threaded ``np.einsum``
reduction and makes no BLAS call. ``DirichletInverse``, the solver's
preconditioner, inverts h^n (-lap_h + shift) on the cube's inner box, the
shift a constant >= 0 standing in for W's curvature; it is the one BLAS
user: it transforms each box axis where it lies, with float32 GEMMs
on C-ordered operands small enough that OpenBLAS runs each on one thread,
so its bits do not depend on the thread count, though they may depend on
the BLAS build.

First derivatives come from one centered-difference pass,
``differences``, which forms them one at a time, components outer and axes
inner. ``gradient_sq`` sums their squares in that order into |grad u|^2,
each difference written into one reused buffer, and ``density`` forms
e = 1/2 |grad u|^2 + W(u); ``derivatives`` keeps them all, as the
(n, m, *shape) stack the stress tensor reads. Every energy density, stress
tensor and Modica bound in the package is built from these, so each
analysis call differentiates a field once, and only the stress tensor
holds the whole stack.
"""

from __future__ import annotations

import numpy as np

# there is no compiled path; the benchmark's environment record reads this name
NUMBA_ENABLED = False


def differences(vals: np.ndarray, h: float, out=None):
    """Yield every first derivative d_ax u_c of the channels-first vals,
    components outer, axes inner: np.gradient's centered differences
    (f[i+1] - f[i-1]) / 2h, and its one-sided (f[1] - f[0]) / h and
    (f[-1] - f[-2]) / h at the cube faces. Each is written into out[ax, c]
    when the (n, m, *shape) stack out is given, else into one buffer that
    the next difference overwrites."""
    n = vals.ndim - 1
    buf = np.empty(vals.shape[1:]) if out is None else None
    for c in range(vals.shape[0]):
        for ax in range(n):
            d = buf if out is None else out[ax, c]
            f = np.moveaxis(vals[c], ax, 0)
            dv = np.moveaxis(d, ax, 0)
            np.subtract(f[2:], f[:-2], out=dv[1:-1])
            dv[1:-1] /= 2.0 * h
            np.subtract(f[1], f[0], out=dv[0])
            dv[0] /= h
            np.subtract(f[-1], f[-2], out=dv[-1])
            dv[-1] /= h
            yield d


def derivatives(vals: np.ndarray, h: float) -> np.ndarray:
    """All first derivatives, shape (n, m, *shape), from ``differences``."""
    out = np.empty((vals.ndim - 1,) + vals.shape)
    for _ in differences(vals, h, out):
        pass
    return out


def sum_sq(diffs) -> np.ndarray:
    """The sum of d * d over the arrays diffs yields, in that order."""
    diffs = iter(diffs)
    first = next(diffs)
    total = first * first
    sq = np.empty_like(total)
    for d in diffs:
        total += np.multiply(d, d, out=sq)
    return total


def gradient_sq(vals: np.ndarray, h: float) -> np.ndarray:
    """|grad u|^2, summed components outer, axes inner, one difference at a
    time."""
    return sum_sq(differences(vals, h))


def density(gsq: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The energy density 1/2 |grad u|^2 + W(u)."""
    return 0.5 * gsq + w


def energy_density(vals, h, pot) -> np.ndarray:
    """1/2 |grad u|^2 + W(u) on every node."""
    return density(gradient_sq(vals, h), pot.value_field(vals))


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> over all entries, without BLAS."""
    return float(np.einsum("ij,ij->", a, b))


def norm2(d: np.ndarray) -> np.ndarray:
    """|d|^2 over the leading (component) axis, one component at a time:
    an elementwise loop whose bits do not depend on the memory layout."""
    out = d[0] * d[0]
    for c in range(1, d.shape[0]):
        out += d[c] * d[c]
    return out


class InteriorOperator:
    """The discrete energy as a function of the interior values x, shape
    (m, N), with the boundary values of ``vals`` pinned.

    Neighbours are read with ``np.take`` from one buffer holding the
    interior values first and the pinned ring values after them, through
    the grid's ``stencil``; one code path serves n=2 and n=3. Every (m, N)
    array it returns is C-contiguous, so elementwise passes over an iterate
    run along N. The Dirichlet part is exactly quadratic, with Hessian
    A = -h^n lap_0, lap_0 the Laplacian with zero boundary data, so the
    energy change along a direction g is known in closed form up to the
    W-sum (``line``), and the Dirichlet gradient at x - t g is
    grad_d - t A g.
    """

    def __init__(self, grid, vals: np.ndarray, pot):
        self.interior, ring, self.nbr = grid.stencil
        self.pot = pot
        self.h2 = grid.h * grid.h
        self.cell = grid.cell
        m, N = vals.shape[0], self.interior.size
        self.n_int = N
        self._pinned = np.empty((m, N + ring.size))
        self._pinned[:, N:] = vals.reshape(m, -1)[:, ring]
        # _apply's buffer, line()'s and the edge list, made on first use
        self._tmp = self._zero = self._ag = self._edges = None

    def gather(self, vals: np.ndarray) -> np.ndarray:
        """Interior values of a full-cube array, shape (m, N), C-contiguous."""
        return np.take(vals.reshape(vals.shape[0], -1), self.interior, axis=1)

    def scatter(self, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
        """A copy of the full-cube ``vals`` with its interior set to x."""
        out = vals.copy()
        out.reshape(out.shape[0], -1)[:, self.interior] = x
        return out

    def _apply(self, buf: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
        """-h^n lap(x), the neighbours of x read from buf."""
        buf[:, :self.n_int] = x
        if self._tmp is None:
            self._tmp = np.empty(x.shape)
        # every index is in range; "clip" skips the bounds check of "raise"
        out = np.take(buf, self.nbr[0], axis=1, out=out, mode="clip")
        for idx in self.nbr[1:]:
            out += np.take(buf, idx, axis=1, out=self._tmp, mode="clip")
        out -= len(self.nbr) * x
        out *= -self.cell / self.h2
        return out

    def pinned(self, x: np.ndarray) -> np.ndarray:
        """The buffer [x, pinned ring values] that ``edges`` indexes; the
        next call overwrites it."""
        self._pinned[:, :self.n_int] = x
        return self._pinned

    def pin(self, ring: np.ndarray) -> None:
        """Pin other ring values, shape (m, ring size) in ``stencil`` order:
        a competitor's, whose energy ``energy`` then evaluates."""
        self._pinned[:, self.n_int:] = ring

    def edges(self):
        """(a, b) per edge group: buffer positions of the edges of the
        discrete energy, every edge with an interior endpoint, b one step
        along +axis from a. Per axis: each interior node's +axis edge, a the
        slice of every interior position (the node itself), then its -axis
        edges to ring nodes. Built on the first call."""
        if self._edges is None:
            n = len(self.nbr) // 2
            every = slice(0, self.n_int)
            self._edges = []
            for up, down in zip(self.nbr[:n], self.nbr[n:]):
                at_ring = np.flatnonzero(down >= self.n_int)
                self._edges += [(every, up), (down[at_ring], at_ring)]
        return self._edges

    def energy(self, x: np.ndarray) -> float:
        """E at interior values x: 1/2 |u_b - u_a|^2 / h^2 summed over
        ``edges``, plus W summed over the interior. Where a is the slice of
        every interior position, the values there are read as x itself,
        with no gather."""
        buf = self.pinned(x)
        e = 0.0
        # overflow to inf is fine: the solver treats non-finite energy as
        # divergence
        with np.errstate(over="ignore"):
            for a, b in self.edges():
                d = np.take(buf, b, axis=1, mode="clip")
                d -= (x if isinstance(a, slice)
                      else np.take(buf, a, axis=1, mode="clip"))
                e += 0.5 * float(np.sum(d * d)) / self.h2
            e += float(np.sum(self.pot.value_field(x)))
        return e * self.cell

    def gradient(self, x: np.ndarray):
        """(gradient of E, its Dirichlet part -h^n lap(x)), both evaluated
        directly with the pinned data."""
        grad_d = self._apply(self._pinned, x)
        return grad_d + self.cell * self.pot.grad_field(x), grad_d

    def line(self, x: np.ndarray, g: np.ndarray, grad_d: np.ndarray,
             w: np.ndarray):
        """(t -> (E(x - t g) - E(x), x - t g, W(x - t g)), A g), given the
        Dirichlet gradient and W at x. The Dirichlet change is the exact
        quadratic -t <grad_d, g> + t^2/2 <g, A g>; only the W-sum is
        re-evaluated. A g lives in a buffer the next call overwrites."""
        lin = dot(grad_d, g)
        if self._ag is None:
            self._zero = np.zeros_like(self._pinned)
            self._ag = np.empty(g.shape)
        ag = self._apply(self._zero, g, out=self._ag)  # A g = -h^n lap_0(g)
        quad = dot(g, ag)
        cell, value_field = self.cell, self.pot.value_field

        def decrement(t: float):
            with np.errstate(over="ignore", invalid="ignore"):
                trial = x - t * g
                w_t = value_field(trial)
                dw = float(np.sum(w_t - w))
            return t * (0.5 * t * quad - lin) + cell * dw, trial, w_t

        return decrement, ag


# OpenBLAS runs a GEMM of at most 64^3 multiply-adds on one thread (its
# multithreading threshold), so calls no larger give the same bits at any
# thread count
_GEMM_MACS = 64 ** 3


def sine_matrix(size: int) -> np.ndarray:
    """The orthonormal DST-I matrix S[j, k] = sqrt(2/(size+1))
    sin(pi (j+1)(k+1)/(size+1)): symmetric, and S S = I."""
    k = np.arange(1, size + 1)
    return (np.sqrt(2.0 / (size + 1))
            * np.sin(np.pi * np.outer(k, k) / (size + 1)))


def lowest_mode(grid) -> np.ndarray:
    """The lowest eigenvector of -lap_h on the cube's inner box, the product
    over the axes of sin(pi i / (side - 1)) at cube index i, unnormalized,
    at the interior nodes in ``InteriorOperator.gather`` order: the mode on
    which ``DirichletInverse`` is largest."""
    side = grid.axis.size
    sines = np.sin(np.pi / (side - 1) * np.arange(side))
    interior = grid.stencil[0]
    phi = np.ones(interior.size)
    for ax in range(grid.n):
        phi *= sines[interior // side ** ax % side]
    return phi


def _spans(total: int, width: int) -> list:
    """Slices cutting range(total) into ceil(total/width) near-equal parts."""
    parts = -(-total // width)
    cuts = [i * total // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


class DirichletInverse:
    """C = (h^n (-lap_h + shift))^-1 on the cube's inner box, zero on the
    cube faces, applied to interior (m, N) arrays: extend by zero to the
    box, sine-transform, divide by h^n (eigenvalue + shift), transform
    back, restrict. It is symmetric positive definite on the interior for
    any shift >= 0. With shift 0 it is close to the inverse of the interior
    operator's Hessian A = -h^n lap_0 away from the ball's edge; a shift
    stands in for the potential's curvature, the D^2W part of the energy's
    Hessian h^n (-lap_0 + D^2W), which the sine basis cannot hold unless it
    is constant. One code path serves n=2 and n=3.

    The sine matrix S is symmetric and S S = I, so one transform, S along
    every box axis, serves both directions. Each axis is transformed where
    it lies, so every product reads C-ordered operands and no transposed
    view reaches BLAS: for an axis with axes after it, the box is viewed
    as (lead, size, trail) and rows of S multiply it from the left,
    batched over lead; for the last axis it is viewed as (lead, size) and
    multiplied by columns of S from the right. The products are float32
    GEMMs cut into blocks of at most ``_GEMM_MACS`` multiply-adds and at
    least two rows and two columns (a one-column product would be a GEMV,
    which OpenBLAS threads from a smaller size), so the result does not
    depend on the BLAS thread count; it may depend on the BLAS build. A
    block takes width = max(8, 64^3 // size^2) columns of the box and
    height = max(2, 64^3 // (size width)) rows of S; on the last axis,
    where the box is the left operand, width of its rows and height of
    the columns of S. Two box buffers are reused across calls.
    """

    def __init__(self, grid, shift: float = 0.0):
        n, size = grid.n, grid.axis.size - 2
        self._sine = sine_matrix(size).astype(np.float32)
        # eigenvalues of -lap_h on the box: a sum of one per axis
        theta = 0.5 * np.pi * np.arange(1, size + 1) / (size + 1)
        lam = 4.0 / (grid.h * grid.h) * np.sin(theta) ** 2
        eig = sum(lam.reshape((-1,) + (1,) * (n - 1 - ax)) for ax in range(n))
        self._inv_eig = (1.0 / (grid.cell * (eig + shift))).astype(np.float32)
        cube = np.unravel_index(grid.stencil[0], grid.shape)
        self._pos = np.ravel_multi_index(tuple(i - 1 for i in cube),
                                         (size,) * n)
        self._a = np.empty((size,) * n, dtype=np.float32)
        self._b = np.empty_like(self._a)
        width = max(8, _GEMM_MACS // (size * size))
        height = max(2, _GEMM_MACS // (size * width))
        # (rows, columns) of each product's output, per axis but the last
        # and then for the last; the block of S is the outer loop, so that
        # it stays in cache while the box streams past
        self._blocks = [[(r, c) for r in _spans(size, height)
                         for c in _spans(size ** (n - 1 - ax), width)]
                        for ax in range(n - 1)]
        self._last = [(r, c) for c in _spans(size, height)
                      for r in _spans(size ** (n - 1), width)]

    def _transform(self, src: np.ndarray, dst: np.ndarray):
        """S along every box axis of src, one axis per pass between the two
        buffers; returns (the buffer holding the result, the other one)."""
        sine = self._sine
        size = sine.shape[0]
        for ax, blocks in enumerate(self._blocks):
            a = src.reshape(size ** ax, size, -1)
            b = dst.reshape(a.shape)
            for r, c in blocks:
                np.matmul(sine[r], a[:, :, c], out=b[:, r, c])
            src, dst = dst, src
        a = src.reshape(-1, size)
        b = dst.reshape(a.shape)
        for r, c in self._last:
            np.matmul(a[r], sine[:, c], out=b[r, c])
        return dst, src

    def __call__(self, g: np.ndarray) -> np.ndarray:
        """C g for interior values g, shape (m, N); a new float64 array."""
        # a power of two brings g into float32's range without rounding it
        scale = 2.0 ** np.frexp(np.abs(g).max())[1]
        # divided in float64, then rounded once to float32
        g32 = np.divide(g, scale, out=np.empty(g.shape, np.float32),
                        casting="same_kind")
        out = np.empty_like(g)
        for c in range(g.shape[0]):
            self._a.fill(0.0)
            self._a.reshape(-1)[self._pos] = g32[c]
            box, spare = self._transform(self._a, self._b)
            box *= self._inv_eig
            box, _ = self._transform(box, spare)
            out[c] = box.reshape(-1)[self._pos]
        out *= scale
        return out


def energy_only(grid, vals: np.ndarray, pot) -> float:
    """The discrete energy of the full-cube field vals, with its own
    boundary values pinned."""
    op = InteriorOperator(grid, vals, pot)
    return op.energy(op.gather(vals))


def energy_and_grad(grid, vals: np.ndarray, pot):
    """(energy, gradient) of the full-cube field vals, with its own boundary
    values pinned; the gradient is a full-cube array, zero off the
    interior."""
    op = InteriorOperator(grid, vals, pot)
    x = op.gather(vals)
    return op.energy(x), op.scatter(np.zeros_like(vals), op.gradient(x)[0])
