package server

import (
	"context"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/verdict"
)

// The decision path (cache → sim) lives in internal/verdict.Decider,
// shared verbatim by this daemon's decision loop, the serial Replayer
// below, and every node of a fleet (internal/fleet). Sharing one
// implementation is what makes the determinism contract checkable: a
// serial replay of the decision log evolves the identical cache, takes
// the identical tier per decision, and reproduces every verdict bit for
// bit.

// DefaultVerdictCacheSize bounds the exact-verdict cache when the fast
// path is enabled and Config.VerdictCacheSize is zero.
const DefaultVerdictCacheSize = verdict.DefaultCacheSize

// decisionTiers are the Verdict.Tier values the decision path emits.
var decisionTiers = []string{schema.TierCache, schema.TierSim}

// newDecider lowers the fast-path half of a Config into the shared
// decider, bound to the session it will decide for. cfg.Scheme must
// already be defaulted.
func newDecider(cfg Config, sess *core.Session) (*verdict.Decider, error) {
	return verdict.NewDecider(sess, verdict.DeciderConfig{
		FastPath:    cfg.FastPath,
		CacheSize:   cfg.VerdictCacheSize,
		Scheme:      cfg.Scheme,
		EvalTimeout: cfg.EvalTimeout,
	})
}

// Replayer re-decides a decision log through the identical tiered logic
// on a single simulator session, in log order. It is the determinism
// contract made executable: with the same fast-path configuration as
// the daemon that wrote the log, Replay returns every verdict — and its
// deciding tier — bit-identically, because the cache evolves through the
// same serial sequence. Only the decision fields of cfg are read
// (FastPath, VerdictCacheSize, Scheme, EvalTimeout); Runner may be nil.
type Replayer struct {
	sess *core.Session
	dec  *verdict.Decider
}

// NewReplayer builds a replayer for the given session, which must match
// the daemon's device, window and seed for signatures to line up.
func NewReplayer(sess *core.Session, cfg Config) (*Replayer, error) {
	if cfg.Scheme == core.SchemeNone {
		cfg.Scheme = core.SchemeRollover
	}
	dec, err := newDecider(cfg, sess)
	if err != nil {
		return nil, err
	}
	return &Replayer{sess: sess, dec: dec}, nil
}

// Replay decides one log entry. Kind "release" and "failed" entries
// return (nil, nil): neither carries a verdict, and the mix each
// decision saw is snapshotted on the decision itself.
func (r *Replayer) Replay(ctx context.Context, d Decision) (*Verdict, error) {
	if d.Kind != "decision" {
		return nil, nil
	}
	specs, ids := verdict.MixSpecs(d.Mix, d.Candidate)
	v, _, err := r.dec.Decide(ctx, specs, ids, func(ctx context.Context, scheme core.Scheme) (*core.Result, error) {
		return r.sess.Run(ctx, specs, scheme)
	})
	return v, err
}
