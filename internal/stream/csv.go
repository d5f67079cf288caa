package stream

import "strconv"

// CSV rendering of stream reports, one row per tenant plus an "ALL"
// totals row, for `stream -mode drive -csv`. trace_hash on every
// row binds the measurement to the exact traffic it was taken under,
// the same contract journal headers give simulation results.

// CSVHeader is the column list of stream-report rows.
func CSVHeader() []string {
	return []string{
		"process", "tenant", "workload", "goal_kind",
		"arrivals", "admitted", "rejected", "throttled", "failed", "released",
		"admit_rate", "own_goal_misses", "collateral_rejects", "violation_rate",
		"p50_verdict_ns", "p99_verdict_ns", "trace_hash",
	}
}

// CSVRows renders the report: tenant rows in name order, then the ALL
// totals row. tenantMeta maps tenant name to (workload, goal kind) for
// the identity columns; unknown tenants get empty identity cells.
func CSVRows(rep *Report, spec GenSpec) [][]string {
	meta := make(map[string]TenantSpec, len(spec.Tenants))
	for _, t := range spec.Tenants {
		meta[t.Name] = t
	}
	row := func(name, workload, goalKind string, s TenantStats) []string {
		return []string{
			rep.Process, name, workload, goalKind,
			strconv.Itoa(s.Arrivals), strconv.Itoa(s.Admitted), strconv.Itoa(s.Rejected),
			strconv.Itoa(s.Throttled), strconv.Itoa(s.Failed), strconv.Itoa(s.Released),
			strconv.FormatFloat(s.AdmitRate, 'f', 4, 64),
			strconv.Itoa(s.OwnGoalMisses), strconv.Itoa(s.CollateralRejects),
			strconv.FormatFloat(s.ViolationRate, 'f', 4, 64),
			strconv.FormatInt(s.VerdictP50Ns, 10), strconv.FormatInt(s.VerdictP99Ns, 10),
			rep.TraceHash,
		}
	}
	var out [][]string
	for _, t := range rep.Tenants {
		m := meta[t.Name]
		goalKind := m.Goal.Kind
		if goalKind == "" {
			goalKind = "none"
		}
		out = append(out, row(t.Name, m.Workload, goalKind, t.TenantStats))
	}
	out = append(out, row("ALL", "", "", rep.Totals))
	return out
}
