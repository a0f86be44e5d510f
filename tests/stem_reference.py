"""Per-call reference copies of Eq. (6) and ROOT's Eq. (7)–(8) test.

These are the cluster-list forms that the array implementation in
:mod:`repro.core.stem` replaced; tests compare the array code against
them bit for bit.  They record no metrics.
"""

import numpy as np

from repro.core.stem import single_cluster_sample_size


def reference_kkt_sample_sizes(clusters, epsilon, z):
    """Eq. (6) over a list of :class:`ClusterStats`, one call per list."""
    if not clusters:
        return np.zeros(0, dtype=np.int64)
    a = np.array([c.mu for c in clusters], dtype=np.float64)
    b = np.array([(c.n * c.sigma) ** 2 for c in clusters], dtype=np.float64)
    total = float(sum(c.total for c in clusters))
    c_const = (epsilon * total / z) ** 2
    scale = float(np.sqrt(a * b).sum()) / c_const if c_const > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = scale * np.sqrt(b / a)
    raw = np.nan_to_num(raw, nan=0.0, posinf=0.0)
    return np.maximum(1, np.ceil(raw)).astype(np.int64)


def reference_split_decision(parent, children, config):
    """``(accepted, tau_old, tau_new)`` of one split, with no floor."""
    m_old = single_cluster_sample_size(parent, epsilon=config.epsilon, z=config.z)
    tau_old = m_old * parent.mu
    m_new = reference_kkt_sample_sizes(children, config.epsilon, config.z)
    tau_new = float(sum(m * c.mu for c, m in zip(children, m_new)))
    return tau_new < tau_old, tau_old, tau_new
