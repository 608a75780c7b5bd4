"""Independent float64 reference implementations used as test oracles.

Everything here is written for clarity over speed (plain loops where the
definition is a loop) and evaluates entirely in float64. The engine under
test never calls into this module.
"""

import numpy as np


def relu_ref(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def softmax_ref(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    x = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(x)
    return e / np.sum(e, axis=axis, keepdims=True)


def dense_ref(x, w, b):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    out = x @ w.T
    if b is not None:
        out = out + np.asarray(b, dtype=np.float64)
    return out


def conv2d_ref(x, w, b, stride=1, padding=0, groups=1):
    """Quadruple-loop cross-correlation, the textbook definition."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, c, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    assert c % groups == 0 and c_out % groups == 0
    assert c_in_g == c // groups
    hp, wp = h + 2 * padding, wd + 2 * padding
    xp = np.zeros((n, c, hp, wp), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((n, c_out, ho, wo), dtype=np.float64)
    per_g_out = c_out // groups
    for ni in range(n):
        for co in range(c_out):
            g = co // per_g_out
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c_in_g):
                        patch = xp[ni, g * c_in_g + ci,
                                   i * stride:i * stride + kh,
                                   j * stride:j * stride + kw]
                        acc += np.sum(patch * w[co, ci])
                    out[ni, co, i, j] = acc
    if b is not None:
        out += np.asarray(b, dtype=np.float64).reshape(1, c_out, 1, 1)
    return out


def batchnorm_ref(x, gamma, beta, eps, running_mean=None, running_var=None, training=True):
    x = np.asarray(x, dtype=np.float64)
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
    else:
        mean = np.asarray(running_mean, dtype=np.float64)
        var = np.asarray(running_var, dtype=np.float64)
    xn = (x - mean.reshape(1, -1, 1, 1)) / np.sqrt(var.reshape(1, -1, 1, 1) + eps)
    return xn * np.asarray(gamma, dtype=np.float64).reshape(1, -1, 1, 1) \
        + np.asarray(beta, dtype=np.float64).reshape(1, -1, 1, 1)


def batchnorm_grad_ref(x, gamma, g, eps, running_mean=None, running_var=None, training=True):
    """(dx, dgamma, dbeta) of batch norm for output gradient ``g``.

    Train mode follows the chain rule through the batch mean and biased
    variance term by term (Ioffe & Szegedy 2015, Algorithm 1's backward);
    eval mode is the gradient of the fixed affine map.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    gamma = np.asarray(gamma, dtype=np.float64)
    dx = np.zeros_like(x)
    dgamma = np.zeros(x.shape[1])
    dbeta = np.zeros(x.shape[1])
    for c in range(x.shape[1]):
        xc, gc = x[:, c], g[:, c]
        if training:
            mu, var = xc.mean(), xc.var()
        else:
            mu, var = float(running_mean[c]), float(running_var[c])
        std = np.sqrt(var + eps)
        dxhat = gc * gamma[c]
        dgamma[c] = np.sum(gc * (xc - mu) / std)
        dbeta[c] = np.sum(gc)
        if training:
            m = xc.size
            dvar = np.sum(dxhat * (xc - mu)) * -0.5 * std ** -3
            dmu = -np.sum(dxhat) / std + dvar * np.mean(-2.0 * (xc - mu))
            dx[:, c] = dxhat / std + dvar * 2.0 * (xc - mu) / m + dmu / m
        else:
            dx[:, c] = dxhat / std
    return dx, dgamma, dbeta


def global_avg_pool_ref(x):
    return np.asarray(x, dtype=np.float64).mean(axis=(2, 3))


def cross_entropy_ref(logits, onehot, epsilon):
    """Label-smoothed cross entropy with both sides smoothed."""
    logits = np.asarray(logits, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    k = logits.shape[1]
    p = softmax_ref(logits)
    p_s = (1.0 - epsilon) * p + epsilon / k
    t_s = (1.0 - epsilon) * onehot + epsilon / k
    return float(np.mean(-np.sum(t_s * np.log(np.maximum(p_s, 1e-12)), axis=1)))


def gaussian_kernel_ref(x, y, bandwidth):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d2 = np.sum((x - y) ** 2)
    return np.exp(-d2 / bandwidth)


def lmmd_ref(f_src, f_tgt, y_src, y_tgt, num_classes, bandwidths):
    """Brute-force double-sum biased class-conditional MMD^2.

    Per class present on both sides, weights are 1/n_c within the class;
    absent classes contribute 0. The kernel is the mean of Gaussian
    kernels over ``bandwidths``.
    """
    f_src = np.asarray(f_src, dtype=np.float64)
    f_tgt = np.asarray(f_tgt, dtype=np.float64)
    total = 0.0
    for c in range(num_classes):
        si = [i for i, y in enumerate(y_src) if y == c]
        ti = [i for i, y in enumerate(y_tgt) if y == c]
        if not si or not ti:
            continue
        ns, nt = len(si), len(ti)
        acc = 0.0
        for bw in bandwidths:
            kss = sum(gaussian_kernel_ref(f_src[i], f_src[j], bw) for i in si for j in si)
            ktt = sum(gaussian_kernel_ref(f_tgt[i], f_tgt[j], bw) for i in ti for j in ti)
            kst = sum(gaussian_kernel_ref(f_src[i], f_tgt[j], bw) for i in si for j in ti)
            acc += kss / (ns * ns) + ktt / (nt * nt) - 2.0 * kst / (ns * nt)
        total += acc / len(bandwidths)
    return total


def mmd_ref(a, b, bandwidth):
    """Plain biased MMD^2 between two sample sets, single Gaussian kernel."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    kaa = np.mean([gaussian_kernel_ref(x, y, bandwidth) for x in a for y in a])
    kbb = np.mean([gaussian_kernel_ref(x, y, bandwidth) for x in b for y in b])
    kab = np.mean([gaussian_kernel_ref(x, y, bandwidth) for x in a for y in b])
    return kaa + kbb - 2.0 * kab
