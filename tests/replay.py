"""Reading a concrete replay of a counter-machine encoding back as counters."""

from fractions import Fraction


def settled_zero_instants(run_):
    """(machine steps done, x1, x2) at each settled instant showing t = 0.

    An instant is settled once the last zero-delay step at that absolute
    time has fired.  Machine steps are counted by main-to-intermediary
    edges.
    """
    idx = {c: i for i, c in enumerate(run_.clocks)}
    out = []
    steps_done = 0
    if not run_.steps or run_.steps[0].delay > 0:
        out.append((0, Fraction(0), Fraction(0)))
    for i, st in enumerate(run_.steps):
        src, dst = st.edge.source, st.edge.target
        if src.startswith("l_") and dst.startswith("lbar_"):
            steps_done += 1
        settled = i + 1 == len(run_.steps) or run_.steps[i + 1].delay > 0
        if settled and st.valuation[idx["t"]] == 0:
            out.append((steps_done, st.valuation[idx["x1"]], st.valuation[idx["x2"]]))
    return out
