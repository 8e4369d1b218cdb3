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
reduction and makes no BLAS call. ``Multigrid``, the solver's
preconditioner, is one V-cycle for h^n (-lap_0 + shift) on the ball's
interior, the shift a constant >= 0 standing in for W's curvature: gathers
over index rows, slices, ufuncs and one einsum, with no BLAS call either,
so no iterate depends on the BLAS build or thread count.

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

import math

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
        self.grid = grid
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

    def work(self):
        """(zero, tmp): the buffer [values, zero ring] that ``line``
        applies A in and the (m, N) scratch of the Laplacian's gathers,
        made on first use. Neither holds a result between the operator's
        calls, so the preconditioner works in them then."""
        if self._zero is None:
            self._zero = np.zeros_like(self._pinned)
        if self._tmp is None:
            self._tmp = np.empty((self._pinned.shape[0], self.n_int))
        return self._zero, self._tmp

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
        re-evaluated. A g lives in a buffer that the next call
        overwrites."""
        lin = dot(grad_d, g)
        if self._ag is None:
            self._ag = np.empty_like(g)
        # A g = -h^n lap_0(g)
        ag = self._apply(self.work()[0], g, out=self._ag)
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


def lowest_mode(grid) -> np.ndarray:
    """The lowest eigenvector of -lap_h on the cube's inner box, the product
    over the axes of sin(pi i / (side - 1)) at cube index i, unnormalized,
    at the interior nodes in ``InteriorOperator.gather`` order: positive,
    largest at the centre and small at the ball's edge."""
    side = grid.axis.size
    sines = np.sin(np.pi / (side - 1) * np.arange(side))
    interior = grid.stencil[0]
    phi = np.ones(interior.size)
    for ax in range(grid.n):
        phi *= sines[interior // side ** ax % side]
    return phi


# the coarsest level holds at most this many nodes; coarser still, the
# ball is too poorly resolved for its correction to serve the finer levels
_COARSEST = 350


def red_first(inside: np.ndarray):
    """(nodes, n_red): the flat indices of the True entries of inside, a
    boolean n-cube of odd side 2 half + 1, red ones (an even sum of offsets
    from the centre node) first and black ones after, each class in cube
    order, and the number of red ones. Every power of an odd side is odd,
    so a flat index has the parity of its cube indices' sum, and the centre
    node's is that of n half."""
    flat = inside.ravel()
    p = inside.ndim * (inside.shape[0] // 2) % 2
    red = 2 * np.flatnonzero(flat[p::2]) + p
    black = 2 * np.flatnonzero(flat[1 - p::2]) + (1 - p)
    return np.concatenate([red, black]), red.size


def _strides(n: int, side: int) -> list:
    return [side ** (n - 1 - ax) for ax in range(n)]


def _black_inverse(nodes: np.ndarray, n_red: int, nbr: np.ndarray,
                   diag: float) -> np.ndarray:
    """The inverse of the black nodes' Schur complement of
    L = diag I - (sum over the rows of nbr; positions past the last node
    read zero), for nodes listed red first: S = diag I - B^T B / diag, B
    the red-black block of L's neighbour sum, dense and exactly symmetric,
    in the order of the black nodes. Red nodes neighbour only black ones,
    so L's red block is diag I, and S couples two black nodes through each
    red node next to both. S = F F^T is factored by Cholesky in cube
    order, where F is banded, and inverted one row at a time against the
    band: numpy loops and einsum only, so its bits do not depend on a BLAS
    build or thread count."""
    size, nb = nodes.size, nodes.size - n_red
    rank = np.empty(nb, dtype=np.intp)
    rank[np.argsort(nodes[n_red:])] = np.arange(nb)
    a = np.zeros((nb, nb))
    a.flat[::nb + 1] = diag
    reds = [row[:n_red] for row in nbr]
    band = 0
    for ra in reds:
        for rb in reds:
            both = (ra < size) & (rb < size)
            i, j = rank[ra[both] - n_red], rank[rb[both] - n_red]
            np.add.at(a, (i, j), -1.0 / diag)
            band = max(band, int(np.abs(i - j).max(initial=0)))
    inv = np.empty(nb)
    for k in range(nb):
        end = min(nb, k + band + 1)
        inv[k] = d = 1.0 / math.sqrt(a[k, k])
        col = a[k + 1:end, k]
        col *= d
        a[k + 1:end, k + 1:end] -= np.multiply.outer(col, col)
    # F z = I row by row, then F^T x = z from the last row up, in z's
    # place; both are formed on and below the diagonal only, where row j
    # reads the rows of the band after it there
    z = np.zeros_like(a)
    for j in range(nb):
        s = max(0, j - band)
        zj = z[j, :j + 1]
        np.einsum("k,kc->c", a[j, s:j], z[s:j, :j + 1], out=zj)
        zj *= -inv[j]
        zj[j] += inv[j]
    for j in range(nb - 1, -1, -1):
        end = min(nb, j + band + 1)
        zj = z[j, :j + 1]
        zj -= np.einsum("k,kc->c", a[j + 1:end, j], z[j + 1:end, :j + 1])
        zj *= inv[j]
    x = np.tril(z)
    x += np.tril(x, -1).T
    return x[np.ix_(rank, rank)]


class _Level:
    """One level of the V-cycle: the ball's interior nodes at spacing H,
    red first, and L = (2n + shift H^2) I - (the sum of the 2n neighbours,
    zero off the interior), which is H^2 (-lap_H + shift). nbr[d] holds the
    neighbours' positions in a buffer whose first ``size`` columns are the
    node values and whose last ones are zero. ``down`` and ``up`` are the
    transfers to the next level (``_transfers``); the last level has
    ``exact``, the dense inverse of its black nodes' Schur complement
    (``_black_inverse``), instead."""

    def __init__(self, nodes, n_red, nbr, diag):
        self.size, self.n_red = nodes.size, n_red
        self.red_rows = [row[:n_red] for row in nbr]
        self.black_rows = [row[n_red:] for row in nbr]
        self.inv_diag = 1.0 / diag
        self.exact = self.down = self.up = self.buf = None

    def bind(self, buf, acc, tmp, coarse_size: int) -> None:
        """Work in buf, shape (m, more than size), zero past the values,
        with the scratch arrays acc and tmp, each of at least m times the
        larger class's size entries; views of them are made again only when
        they are other arrays."""
        if buf is self.buf and acc is self._acc and tmp is self._tmp:
            return
        self.buf, self._acc, self._tmp = buf, acc, tmp
        m, size, nr = buf.shape[0], self.size, self.n_red
        self.x = buf[:, :size]
        self.red, self.black = self.x[:, :nr], self.x[:, nr:]
        acc, tmp = acc.reshape(-1), tmp.reshape(-1)
        self.acc = {k: acc[:m * k].reshape(m, k)
                    for k in (nr, size - nr, coarse_size)}
        self.tmp = {k: tmp[:m * k].reshape(m, k) for k in (nr, size - nr)}


def _gather_sum(src, rows, acc, tmp, out=None):
    """The sum of src's columns at each of rows, formed in acc (out, when
    given, receives it instead)."""
    np.take(src, rows[0], axis=1, out=acc, mode="clip")
    for row in rows[1:-1]:
        acc += np.take(src, row, axis=1, out=tmp, mode="clip")
    return np.add(acc, np.take(src, rows[-1], axis=1, out=tmp, mode="clip"),
                  out=acc if out is None else out)


def _transfers(n: int, fine, fine_side: int, coarse, coarse_side: int):
    """(down, up), int32, between a level and the next, each listed red
    first in a cube lattice of odd side centred on the origin. down[j]
    holds, for each coarse node, the position among the fine values of its
    child at the j-th step, red since a coarse node is: itself first, then
    the 2 n (n - 1) steps of +-1 along two axes; a child off the fine
    interior reads the first zero, at the fine size. up[j] holds, for each
    fine red node, the position among the coarse values of its j-th
    n-linear parent, the coarse size (a zero) for one off the coarse
    interior: the coarse node itself, four times, or the four corners of
    the face whose centre it is."""
    (f_nodes, f_red), c_nodes = fine, coarse
    f_half, c_half = fine_side // 2, coarse_side // 2
    f_str, c_str = _strides(n, fine_side), _strides(n, coarse_side)
    pos = np.full(fine_side ** n, f_nodes.size, dtype=np.int32)
    pos[f_nodes[:f_red]] = np.arange(f_red)
    at = sum((2 * (i - c_half) + f_half) * s
             for i, s in zip(np.unravel_index(c_nodes, (coarse_side,) * n),
                             f_str))
    steps = [0] + [sa * da + sb * db
                   for a, sa in enumerate(f_str) for sb in f_str[a + 1:]
                   for da in (1, -1) for db in (1, -1)]
    down = np.stack([pos[at + s] for s in steps])
    del pos, at
    # a red node has no odd offset or two; the first odd axis takes the
    # corner bit j >> 1, the second takes j & 1
    up = np.zeros((4, f_red), dtype=np.intp)
    seen = np.zeros(f_red, dtype=bool)
    for o, s in zip(np.unravel_index(f_nodes[:f_red], (fine_side,) * n),
                    c_str):
        o = o - f_half
        odd = (o & 1).astype(bool)
        up += ((o >> 1) + c_half) * s
        up[2:] += s * (odd & ~seen)
        up[1::2] += s * (odd & seen)
        seen |= odd
    pos = np.full(coarse_side ** n, c_nodes.size, dtype=np.int32)
    pos[c_nodes] = np.arange(c_nodes.size)
    return down, pos[up]


class Multigrid:
    """C, the solver's preconditioner: one V-cycle from zero for
    h^n (-lap_0 + shift) x = g on the ball's interior, zero on the ring,
    applied to the interior (m, N) arrays of the ``InteriorOperator`` op;
    with shift 0 it approximates the inverse of op's Dirichlet Hessian
    A = -h^n lap_0, and a shift stands in for the potential's curvature
    D^2W. One code path serves n = 2 and n = 3.

    Level 0 is the grid's stencil, whose interior is listed red first, so
    that each half sweep writes one contiguous slice and reads its
    neighbour rows as views of the stencil's own. Level k + 1 keeps the
    interior nodes of level k at even offsets from the centre, in a lattice
    one layer wider than they need, listed red first again, until a level
    holds at most ``_COARSEST`` nodes; that one is solved exactly, its red
    nodes eliminated and its black ones solved with the dense inverse of
    their Schur complement (``_black_inverse``). Every level is the ball at
    its own spacing H with the shift on its diagonal (``_Level``).

    A cycle on a level starts from zero. It smooths by red-black
    Gauss-Seidel, red then black: from zero the red sweep is f/diag and
    leaves the residual zero on the black nodes, so only the red residual
    is restricted, by full weighting R = P^T / 2^n with P n-linear, times
    4 for the coarse level's (2H)^2. The residual is formed in the red
    values' place and the red values f/diag formed again after the coarse
    solve; the coarse solution is prolonged to the red nodes only, since
    the black sweep that follows overwrites the black ones; then the cycle
    smooths black then red. The post-smoother is the adjoint of the
    pre-smoother and the coarse correction is P times a symmetric operator
    times P^T, so C is symmetric positive definite, to rounding, and BB2's
    secant pair stays exact. An application is ``np.take`` over index
    rows, slices and elementwise ufuncs, and the coarsest level's einsum:
    it makes no BLAS call, so its bits do not depend on the thread count.
    Level 0 works in op's scratch buffers (``InteriorOperator.work``), so
    C leaves the A g of op's last ``line`` as it was; the other levels keep
    their buffers from one application to the next.
    """

    def __init__(self, op, shift: float = 0.0):
        grid = op.grid
        interior, ring, nbr = grid.stencil
        n, side, size = grid.n, grid.axis.size, interior.size
        self.op = op
        self.scale = grid.h ** (2 - n)
        inside = np.zeros(side ** n, dtype=bool)
        inside[interior] = True
        inside = inside.reshape((side,) * n)
        n_red = red_first(inside)[1]
        spacing = grid.h
        level = _Level(interior, n_red, nbr, 2 * n + shift * spacing ** 2)
        self._levels = [level]
        nodes = interior
        while size > _COARSEST:
            half = side // 2
            inside = np.pad(inside[(slice(half % 2, None, 2),) * n], 1)
            c_side = inside.shape[0]
            c_nodes, c_red = red_first(inside)
            level.down, level.up = _transfers(n, (nodes, n_red), side,
                                              c_nodes, c_side)
            pos = np.full(c_side ** n, c_nodes.size, dtype=np.int32)
            pos[c_nodes] = np.arange(c_nodes.size)
            strides = _strides(n, c_side)
            nbr = np.stack([pos[c_nodes + s]
                            for s in strides + [-s for s in strides]])
            del pos
            spacing *= 2.0
            nodes, n_red, side, size = c_nodes, c_red, c_side, c_nodes.size
            level = _Level(nodes, n_red, nbr, 2 * n + shift * spacing ** 2)
            self._levels.append(level)
        level.exact = _black_inverse(nodes, n_red, nbr,
                                     2 * n + shift * spacing ** 2)
        # the restriction's weight, with the 1/4 of P's face corners moved
        # onto the coarse right side: 2^(2 - n) (r_c + sum r_face / 4) / 4
        self._restrict = 2.0 ** (-n - 2)
        self._m = 0

    def _buffers(self, m: int) -> None:
        """Bind level 0 to op's work buffers and a scratch array of its own,
        and the other levels to their own, made again only when m changes:
        the values with a zero after them, the right side, and two scratch
        arrays."""
        levels = self._levels
        coarse = [lv.size for lv in levels[1:]] + [0]
        if m != self._m:
            self._m = m
            halves = [m * max(lv.n_red, lv.size - lv.n_red) for lv in levels]
            self._scratch = np.empty(halves[0])
            for lv, c_size, half in zip(levels[1:], coarse[1:], halves[1:]):
                lv.rhs = np.empty((m, lv.size))
                lv.bind(np.zeros((m, lv.size + 1)), np.empty(half),
                        np.empty(half), c_size)
        levels[0].bind(*self.op.work(), self._scratch, coarse[0])

    def _cycle(self, k: int, f: np.ndarray) -> None:
        """One V-cycle from zero for L x = f on level k; x is left in the
        level's buffer."""
        lv = self._levels[k]
        nr, nb, buf = lv.n_red, lv.size - lv.n_red, lv.buf
        if lv.exact is not None:
            # eliminate the red nodes: their values from zero are f/diag,
            # the black ones then solve the Schur complement, and the red
            # ones follow from the black
            np.multiply(f[:, :nr], lv.inv_diag, out=lv.red)
            total = _gather_sum(buf, lv.black_rows, lv.acc[nb], lv.tmp[nb])
            total += f[:, nr:]
            np.einsum("ij,mj->mi", lv.exact, total, out=lv.black)
            self._sweep(lv, lv.red, f[:, :nr], lv.red_rows, nr)
            return
        coarse = self._levels[k + 1]
        np.multiply(f[:, :nr], lv.inv_diag, out=lv.red)
        self._sweep(lv, lv.black, f[:, nr:], lv.black_rows, nb)
        # the red residual, in the red values' place
        _gather_sum(buf, lv.red_rows, lv.acc[nr], lv.tmp[nr], out=lv.red)
        fc = coarse.rhs
        np.take(buf, lv.down[0], axis=1, out=fc, mode="clip")
        fc *= 4.0
        acc = lv.acc[coarse.size]
        for row in lv.down[1:]:
            fc += np.take(buf, row, axis=1, out=acc, mode="clip")
        fc *= self._restrict
        self._cycle(k + 1, fc)
        np.multiply(f[:, :nr], lv.inv_diag, out=lv.red)
        lv.red += _gather_sum(coarse.buf, lv.up, lv.acc[nr], lv.tmp[nr])
        self._sweep(lv, lv.black, f[:, nr:], lv.black_rows, nb)
        self._sweep(lv, lv.red, f[:, :nr], lv.red_rows, nr)

    @staticmethod
    def _sweep(lv, out, f, rows, width) -> None:
        """One half sweep: out = (f + the neighbours' sum) / diag."""
        total = _gather_sum(lv.buf, rows, lv.acc[width], lv.tmp[width])
        total += f
        np.multiply(total, lv.inv_diag, out=out)

    def __call__(self, g: np.ndarray) -> np.ndarray:
        """C g for interior values g, shape (m, N); a new C-contiguous
        array."""
        self._buffers(g.shape[0])
        self._cycle(0, g)
        return np.multiply(self._levels[0].x, self.scale)


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
