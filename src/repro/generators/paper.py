"""The paper's own example graphs (Figures 1 and 2).

Figure 2 caveat: the extracted rate vectors
are mutually consistent and give the minimal repetition vector
``q = [3, 4, 6, 1]`` for ``A, B, C, D``, while the prose claims
``[6, 12, 6, 1]``. All five balance equations hold for the former and none
for the latter, so we keep the figure's rates. The initial markings on the
``C→A``/``A→D``/``D→C`` arcs (4, 13, 6) are also from the figure; they
make the graph live.
"""

from __future__ import annotations

from repro.model.buffer import Buffer
from repro.model.graph import CsdfGraph
from repro.model.task import Task


def figure1_buffer() -> CsdfGraph:
    """Figure 1: one buffer, producer ``t`` (3 phases), consumer ``t'``.

    ``in_b = [2,3,1]``, ``out_b = [2,5]``, ``M0 = 0`` — the running
    single-buffer example (``i_b = 6``, ``o_b = 7``). Unit durations are
    assumed (the figure leaves them unspecified).
    """
    g = CsdfGraph("figure1")
    g.add_task(Task("t", (1, 1, 1)))
    g.add_task(Task("t2", (1, 1)))
    g.add_buffer(Buffer("b", "t", "t2", (2, 3, 1), (2, 5), 0))
    return g


def figure2_graph() -> CsdfGraph:
    """Figure 2: the paper's running 4-task CSDFG.

    Tasks ``A`` (2 phases, d=[1,1]), ``B`` (3 phases, d=[1,1,1]),
    ``C``/``D`` (single phase, d=[1]); buffers::

        A→B : in [3,5]   out [1,1,4]  M0 0
        B→C : in [6,2,1] out [6]      M0 0
        C→A : in [2]     out [1,3]    M0 4
        A→D : in [3,5]   out [24]     M0 13
        D→C : in [36]    out [6]      M0 6

    Minimal repetition vector: ``q = {A:3, B:4, C:6, D:1}``.
    """
    g = CsdfGraph("figure2")
    g.add_task(Task("A", (1, 1)))
    g.add_task(Task("B", (1, 1, 1)))
    g.add_task(Task("C", (1,)))
    g.add_task(Task("D", (1,)))
    g.add_buffer(Buffer("a_b", "A", "B", (3, 5), (1, 1, 4), 0))
    g.add_buffer(Buffer("b_c", "B", "C", (6, 2, 1), (6,), 0))
    g.add_buffer(Buffer("c_a", "C", "A", (2,), (1, 3), 4))
    g.add_buffer(Buffer("a_d", "A", "D", (3, 5), (24,), 13))
    g.add_buffer(Buffer("d_c", "D", "C", (36,), (6,), 6))
    return g
