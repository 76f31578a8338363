"""Slow reference paths that the fast code of the package is tested against."""

from termbound.termlang import InvariantReport, Program, Trace, TransitionInvariant


def check_invariant_pairwise(
    p: Program, trace: Trace, inv: TransitionInvariant
) -> InvariantReport:
    """``check_invariant`` one pair at a time: a member call per pair and relation."""
    states = trace.states
    members = [r.compile_member(p) for r in inv.relations]
    ranks = [r.compile_rank(p) for r in inv.relations]
    values = [[rank(s) for s in states] for rank in ranks]
    report = InvariantReport(
        trace_length=len(states),
        reached_final=trace.complete,
        pairs_checked=len(states) * (len(states) - 1) // 2,
        rank_tuples=list(zip(*values)),
    )
    for i in range(len(states)):
        si = states[i]
        for j in range(i + 1, len(states)):
            sj = states[j]
            covered = False
            for r, member in enumerate(members):
                if member(si, sj):
                    if values[r][j] < values[r][i]:
                        covered = True
                    else:
                        report.rank_violation_total += 1
                        if len(report.rank_violations) < report.MAX_LISTED:
                            report.rank_violations.append(
                                (i, j, inv.relations[r].name)
                            )
            if not covered:
                report.uncovered_total += 1
                if len(report.uncovered) < report.MAX_LISTED:
                    report.uncovered.append((i, j))
    return report
