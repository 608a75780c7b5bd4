"""Finite-difference gradient checking against float64 oracles.

The analytic gradient comes from the engine under test (float32 forward,
float64 accumulation); the reference gradient is a central difference of
an independent float64 oracle at h=1e-3. Error is measured relative to
the largest gradient magnitude in the pair, so near-zero entries do not
blow up the metric while any formula error still registers at full size.
"""

import numpy as np

from edgediag.tensor import Tape, Tensor, custom_op

FD_H = 1e-3
REL_TOL = 1e-4


def weighted_sum(out, weights=None):
    """sum(out * weights), summed in float64, as a one-element tensor.

    ``weights`` defaults to all ones, which makes this a plain sum.
    """
    r = np.ones(out.shape) if weights is None else np.asarray(weights, np.float64).reshape(out.shape)
    total = np.sum(out.data * r).reshape(1)
    return custom_op("weighted_sum", (out,), total, lambda g: (g * r,))


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b)) / scale)


def finite_diff(loss_fn, arrays, h=FD_H):
    """Central differences of scalar ``loss_fn(arrays)`` w.r.t. every entry."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(arrays)
            flat[i] = orig - h
            lm = loss_fn(arrays)
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads


def check_grads(engine_fn, oracle_fn, arrays, seed=0, tol=REL_TOL, forward_tol=1e-5):
    """Check engine gradients of a random linear readout of ``engine_fn``.

    ``engine_fn(tensors) -> Tensor`` runs the op(s) under test;
    ``oracle_fn(arrays) -> float64 array`` is the independent reference.
    The scalar loss is sum(output * R) for a fixed random R, which
    exercises a dense, non-uniform output gradient.
    """
    arrays = [np.asarray(a, dtype=np.float64).copy() for a in arrays]
    out_ref = np.asarray(oracle_fn(arrays), dtype=np.float64)
    rng = np.random.default_rng(seed)
    readout = rng.standard_normal(out_ref.shape)

    def loss_ref(arrs):
        return float(np.sum(np.asarray(oracle_fn(arrs), dtype=np.float64) * readout))

    fd_grads = finite_diff(loss_ref, arrays)

    with Tape() as tape:
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = engine_fn(ts)
        ferr = max_rel_err(out.data, out_ref)
        assert ferr < forward_tol, f"forward mismatch: {ferr:.3g}"
        loss = weighted_sum(out, readout)
        gm = tape.backward(loss, ts)

    worst = 0.0
    for t, g_fd in zip(ts, fd_grads):
        err = max_rel_err(gm[t].data, g_fd)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch: {err:.3g} (tol {tol})"
    return worst
