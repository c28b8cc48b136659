package main

import (
	"bytes"
	"fmt"
	"time"

	"aqua/internal/check"
	"aqua/internal/core"
	"aqua/internal/node"
)

// The output checks every workload runs on its drained deployments.

// The fault self-test arms the planted commit-reorder bug on faultTo and
// delays every message faultFrom sends it by faultLinkDelay, as the
// repository's chaos test does: the bug fires only on a GSN hole, which
// needs one client's update body to lag behind the sequencer's
// assignments.
const (
	faultFrom      = node.ID("c01")
	faultTo        = node.ID("p01")
	faultLinkDelay = 30 * time.Millisecond
)

// convergence checks that the serving primaries of a drained deployment
// agree on CSN and hold byte-identical application snapshots.
func convergence(d *core.Deployment) []string {
	var problems []string
	ref := d.Replicas[d.ServingPrimaries[0]]
	refSnap, err := ref.App().Snapshot()
	if err != nil {
		return []string{fmt.Sprintf("snapshot: %v", err)}
	}
	for _, id := range d.ServingPrimaries[1:] {
		r := d.Replicas[id]
		snap, err := r.App().Snapshot()
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("%s snapshot: %v", id, err))
		case r.CSN() != ref.CSN():
			problems = append(problems, fmt.Sprintf("%s CSN %d != %s CSN %d", id, r.CSN(), d.ServingPrimaries[0], ref.CSN()))
		case !bytes.Equal(snap, refSnap):
			problems = append(problems, fmt.Sprintf("%s snapshot differs from %s", id, d.ServingPrimaries[0]))
		}
	}
	return problems
}

// uniqueVersions reports the first Set reply version seen twice: every
// update gets its own version from the replicated store.
func uniqueVersions(versions []string) []string {
	seen := make(map[string]bool, len(versions))
	for _, v := range versions {
		if seen[v] {
			return []string{"duplicate Set reply version " + v}
		}
		seen[v] = true
	}
	return nil
}

// oracleProblems runs the protocol oracles over a recorded trace.
func oracleProblems(events []check.Event) []string {
	rep := check.Run(events)
	if rep.OK() {
		return nil
	}
	var b bytes.Buffer
	rep.Write(&b)
	return []string{"oracles: " + b.String()}
}
