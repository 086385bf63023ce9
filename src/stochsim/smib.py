"""Hand-derived closed forms for the single-machine-infinite-bus system.

Everything here is written out by hand, independently of the generic series
engine, so the two can check each other: the admittance coefficients of the
classical machine/tie-line/impedance-load circuit and the order-2 series
terms of the rotor angle and speed.

The published series recursion for the stochastic load reactance repeats
the resistance initial value R_L(0) where X_L(0) belongs, plainly a slip of
the pen.  The load series are not reproduced here: production loads come
from :func:`stochsim.noise.load_schedule`, whose moments ``validate``
checks against the stationary OU law.

Not a production solver; used by the test suite and the validation command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MachineSet, pack_state
from .network import ReducedNetwork, schur_complement


class SingularityError(ArithmeticError):
    """A circuit quantity the closed forms divide by vanishes."""


@dataclass(frozen=True)
class SMIBParams:
    """Classical machine behind (Rs, xdp), tie line (r, x), impedance load (rl, xl).

    ``ep`` is the internal EMF magnitude, ``v`` the infinite-bus voltage.
    """

    H: float = 3.5
    D: float = 2.0
    omega_r: float = 2.0 * math.pi * 60.0
    pm: float = 0.8
    ep: float = 1.08
    v: float = 1.0
    rs: float = 0.0
    xdp: float = 0.25
    r: float = 0.02
    x: float = 0.35
    rl: float = 2.5
    xl: float = 1.8

    def __post_init__(self):
        if self.H <= 0:
            raise ValueError("H must be positive")
        if self.rl * self.rl + self.xl * self.xl <= 0:
            raise ValueError("load impedance magnitude must be positive")


def k_coefficients(p: SMIBParams):
    """The five admittance coefficients of the classical SMIB power expression.

    Raises :class:`SingularityError` naming the vanishing
    conductance/susceptance sum.
    """
    y_l = 1.0 / complex(p.rl, p.xl)
    y_s = 1.0 / complex(p.rs, p.xdp)
    y_r = 1.0 / complex(p.r, p.x)
    g_l, b_l = y_l.real, y_l.imag
    g_s, b_s = y_s.real, y_s.imag
    g_r, b_r = y_r.real, y_r.imag

    sum_b = b_l + b_r + b_s
    sum_g = g_l + g_r + g_s
    if sum_b == 0.0:
        raise SingularityError("B_L + B_R + B_S vanishes (k1 undefined)")
    if sum_g == 0.0:
        raise SingularityError("G_L + G_R + G_S vanishes (k2 undefined)")

    k1 = sum_g**2 / sum_b + sum_b
    k2 = sum_g + sum_b**2 / sum_g
    k3 = p.ep**2 * (
        (g_s * (b_l + b_r) + b_s * (g_l + g_r)) / k1
        - (b_s * (b_l + b_r) - g_s * (g_l + g_r)) / k2
    )
    k4 = -k2 * (b_s * g_r + g_s * b_r) + k1 * (b_s * b_r - g_s * g_r)
    k5 = -k2 * (b_s * b_r - g_s * g_r) - k1 * (b_s * g_r + g_s * b_r)
    return k1, k2, k3, k4, k5


def electric_power(p: SMIBParams, delta: float) -> float:
    """P_e(delta) = k3 + (E'V / k1 k2) (k4 cos(delta) + k5 sin(delta))."""
    k1, k2, k3, k4, k5 = k_coefficients(p)
    c = p.ep * p.v / (k1 * k2)
    return k3 + c * (k4 * math.cos(delta) + k5 * math.sin(delta))


def smib_rhs(p: SMIBParams, delta: float, omega: float):
    """Right-hand side of the classical rotor equations at (delta, omega)."""
    d_delta = omega - p.omega_r
    d_omega = (p.omega_r / (2.0 * p.H)) * (
        p.pm - electric_power(p, delta) - p.D * (omega - p.omega_r) / p.omega_r
    )
    return d_delta, d_omega


def smib_window_coefficients(p: SMIBParams, delta0: float, omega0: float):
    """Hand-derived series coefficients (orders 0..2) of delta and omega.

    With C = E'V/(k1 k2) and
    B1 = D (w0-wR)/wR - Pm + k3 + C k4 cos d0 + C k5 sin d0,
    the rotor-speed terms are

        w0,   w1(t) = -(t wR / 2H) B1,
        w2(t) = (t^2 wR / 8H^2) [ D^2 (w0-wR)/wR + D(-Pm + k3)
                 + D C k4 cos d0 + D C k5 sin d0
                 + 2H (w0-wR) C (k4 sin d0 - k5 cos d0) ]

    and the angle terms follow by one time integration.  The order-2
    bracket is re-derived by hand and agrees with the series engine to
    rounding.  It differs from the published expression in three places:
    the published cosine/sine pair C k4 cos d0 + C k5 sin d0 lacks the
    damping factor D; its frame-rotation pair carries the rated speed,
    2H wR C (k5 cos d0 - k4 sin d0), where the speed deviation belongs,
    2H (w0-wR) C (k4 sin d0 - k5 cos d0); and it has an extra term
    -2H (w0-wR) C cos d0 without an admittance coefficient.  On the
    increment scale the published form is off by more than 100%.
    """
    k1, k2, k3, k4, k5 = k_coefficients(p)
    w_r = p.omega_r
    c = p.ep * p.v / (k1 * k2)
    cosd, sind = math.cos(delta0), math.sin(delta0)
    b1 = p.D * (omega0 - w_r) / w_r - p.pm + k3 + c * k4 * cosd + c * k5 * sind

    w1 = -(w_r / (2.0 * p.H)) * b1
    bracket = (
        p.D**2 * (omega0 - w_r) / w_r
        + p.D * (-p.pm + k3)
        + p.D * c * k4 * cosd
        + p.D * c * k5 * sind
        + 2.0 * p.H * (omega0 - w_r) * c * (k4 * sind - k5 * cosd)
    )
    w2 = (w_r / (8.0 * p.H**2)) * bracket

    delta_coeffs = np.array([delta0, omega0 - w_r, 0.5 * w1])
    omega_coeffs = np.array([omega0, w1, w2])
    return delta_coeffs, omega_coeffs


def smib_embedding(p: SMIBParams):
    """The SMIB circuit as a two-node reduced network plus machine set.

    Node 1 is the machine internal node, node 2 the infinite bus (an ideal
    source represented as an immovable machine with enormous inertia and
    frozen transient voltages).  Eliminating the terminal bus reproduces the
    circuit the hand formulas describe, so the generic engine can be
    compared against them coefficient by coefficient.
    """
    y_s = 1.0 / complex(p.rs, p.xdp)
    y_r = 1.0 / complex(p.r, p.x)
    y_l = 1.0 / complex(p.rl, p.xl)
    y_red, recovery = schur_complement(
        np.array([[y_s, 0.0], [0.0, y_r]], dtype=complex),
        np.array([[-y_s], [-y_r]], dtype=complex),
        np.array([[-y_s, -y_r]], dtype=complex),
        np.array([[y_s + y_r + y_l]], dtype=complex),
    )
    net = ReducedNetwork(y=y_red, recovery=recovery)
    machines = MachineSet(
        H=np.array([p.H, 1e12]),
        D=np.array([p.D, 0.0]),
        xd=np.array([p.xdp, 1.0]),
        xdp=np.array([p.xdp, 1.0]),
        xq=np.array([p.xdp, 1.0]),
        xqp=np.array([p.xdp, 1.0]),
        Td0p=np.array([1.0, 1.0]),
        Tq0p=np.array([1.0, 1.0]),
        omega_r=p.omega_r,
        efd=np.array([p.ep, p.v]),
        pm=np.array([p.pm, 0.0]),
    )
    return net, machines


def smib_state(p: SMIBParams, delta0: float, omega0: float) -> np.ndarray:
    """Packed two-machine state for the embedding at (delta0, omega0)."""
    return pack_state(
        np.array([delta0, 0.0]),
        np.array([omega0, p.omega_r]),
        np.array([p.ep, p.v]),
        np.array([0.0, 0.0]),
    )

