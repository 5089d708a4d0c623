"""Scoring rules: the 2PS-L constant-time score and HDRF.

2PS-L score (Section III-B, Step 3).  For edge ``(u, v)`` and candidate
partition ``p``::

    s(u, v, p) = g_u + g_v + sc_u + sc_v

    g_x  = 1 + (1 - d_x / (d_u + d_v))   if x is replicated on p, else 0
    sc_x = vol(c_x) / (vol(c_u) + vol(c_v))   if c_x is mapped to p, else 0

The degree term prefers replicating the *lower*-degree endpoint (cutting
through hubs is cheaper per edge), and the novel cluster-volume term pulls
the edge toward the partition of the larger adjacent cluster, because more
of that cluster's edges are still to come in the stream.

Crucially, 2PS-L evaluates this score on **two** candidate partitions only
(the partitions of the endpoints' clusters) — that is the whole trick that
makes the partitioner linear-time.

HDRF score (Petroni et al., used by the HDRF baseline and the 2PS-HDRF
variant) evaluates on **every** partition::

    C_HDRF(u, v, p) = C_REP(u, v, p) + lambda * C_BAL(p)
    C_REP = g_u + g_v          (same degree-weighted replication term)
    C_BAL = (maxsize - |p|) / (eps + maxsize - minsize)

The reference implementation of both rules is the ``python`` kernel
backend (:mod:`repro.kernels.python_backend`): ``remaining_pass_linear``
scores the two 2PS-L candidates and ``hdrf_choose`` is the HDRF argmax.
Every other backend is pinned bit-exact against it.
"""

from __future__ import annotations

#: Tie-break epsilon in the HDRF balance term (reference implementation).
HDRF_EPSILON = 1e-9
