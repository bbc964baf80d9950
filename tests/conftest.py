"""Shared builders: tiny hand-wired networks and reference models.

Single affine layers make every coefficient of the generator explicit, so
tests can pin drift, diffusion and kernel values exactly instead of
fishing them out of randomly initialized networks.
"""

import numpy as np

import nansde as nd
from nansde.integrator import SIGMA_FLOOR, softplus


def softplus_inverse(y):
    """Scalar inverse of softplus; pins sigma to a target value."""
    if y <= 0.0:
        raise ValueError(f"softplus is positive, got target {y}")
    return float(np.log(np.expm1(y)))


def brownian_path_values(grid, seed):
    """Standard Brownian motion from 0: the cumulative sum of the increments."""
    return np.concatenate(([0.0], np.cumsum(nd.brownian_increments(grid, seed))))


def affine_net(w, b):
    """One affine layer: f(x) = w*x + b (no activation)."""
    return nd.MlpParams(
        weights=[np.array([[float(w)]])],
        biases=[np.array([float(b)])],
    )


def constant_sigma_net(value):
    """Affine head whose positivity transform lands exactly on ``value``."""
    return affine_net(0.0, softplus_inverse(value - SIGMA_FLOOR))


def build_model(grid, x0=1.0, drift=(0.0, 0.0), sigma=1.0, ell1=(0.0, 0.0),
                ell2=(0.0, 0.0), clamp_ell2=False):
    """Generator with affine nets: drift/ell1/ell2 are (w, b) pairs."""
    return nd.NansdeModel(
        drift_net=affine_net(*drift),
        diffusion_net=constant_sigma_net(sigma),
        ell1_net=affine_net(*ell1),
        ell2_net=affine_net(*ell2),
        grid=grid,
        x0=float(x0),
        clamp_ell2=clamp_ell2,
    )


def ell_values(model, t):
    """(ell1, ell2) on an array of times, each from its network's forward; a
    clamped ell2 is zeros, the plain SDE's (the sweep runs no ell network)."""
    rows = np.asarray(t, dtype=float).reshape(-1, 1)
    ell1 = nd.mlp_forward_batch(model.ell1_net, rows)[:, 0]
    if model.clamp_ell2:
        return ell1, np.zeros(rows.shape[0])
    return ell1, nd.mlp_forward_batch(model.ell2_net, rows)[:, 0]


def brownian_model(grid, x0=1.0, sigma=1.0):
    """b = 0, ell1 = ell2 = 0: X is x0 plus a scaled Brownian cumulative sum."""
    return build_model(grid, x0=x0, sigma=sigma)


def reference_forward(params, rows):
    """Every activation a_0..a_L of one network, one plain layer at a time.

    A 1-wide input is a broadcast multiply, a wider one a single-network
    einsum; tanh follows every layer but the last.  An oracle for the
    package's stacked forward that shares none of its code."""
    acts = [np.asarray(rows, dtype=float)]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if w.shape[1] == 1:
            z = acts[-1] * w[:, 0][None, :]
        else:
            z = np.einsum("ri,oi->ro", acts[-1], w, optimize=False)
        z = z + b[None, :]
        acts.append(z if i == params.n_layers - 1 else np.tanh(z))
    return acts


def state_coefficients(model, x):
    """b and sigma on an array of states, with both networks' activations.

    Each network runs on its own through :func:`reference_forward` and sigma
    is softplus plus the floor: a reference for the stacked drift and
    diffusion forward that the Euler sweep and R^2 share."""
    rows = np.asarray(x, dtype=float).reshape(-1, 1)
    drift_acts = reference_forward(model.drift_net, rows)
    diffusion_acts = reference_forward(model.diffusion_net, rows)
    sigma = softplus(diffusion_acts[-1][:, 0]) + SIGMA_FLOOR
    return drift_acts[-1][:, 0], sigma, drift_acts, diffusion_acts


def positive_observed_path(n_steps=80, scale=0.05, seed=123):
    """Strictly positive synthetic data: the exponential of a scaled Bm."""
    grid = nd.unit_grid(n_steps)
    w = brownian_path_values(grid, nd.NoiseSeed(seed, 0))
    return nd.Path(grid, np.exp(scale * w))


def unit_adjoint_input_gradient(params, acts):
    """d output / d input of a scalar network, by a reverse sweep from a unit
    adjoint through every layer: an independent oracle for
    ``mlp_input_derivative`` and the derivatives the backward pass uses."""
    delta = np.ones((acts[0].shape[0], 1))
    for i in range(params.n_layers - 1, -1, -1):
        w = params.weights[i]
        if w.shape[0] == 1:
            back = delta * w[0][None, :]
        else:
            back = np.einsum("ro,oi->ri", delta, w, optimize=False)
        delta = back if i == 0 else (1.0 - np.square(acts[i])) * back
    return delta
