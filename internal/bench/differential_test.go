package bench

import (
	"testing"

	"appfit/internal/bench/workload"
	"appfit/internal/cluster"
	"appfit/internal/core"
	"appfit/internal/fault"
	"appfit/internal/rt"
	"appfit/internal/trace"
	"appfit/internal/vote"
)

// recoveryCounts are the counters both engines report for the Figure-2
// recovery path.
type recoveryCounts struct {
	Replicated, SDCDetected, DUERecovered, Reexecutions, VoteFailures int
}

// diffCase scripts the same per-attempt outcomes into every task.
type diffCase struct {
	name    string
	max     int             // MaxAttempts; 0 takes the engines' default
	attempt []fault.Outcome // outcome of attempt k; missing attempts run clean
}

// diffCases cover a single fault in the primary, the replica and a
// re-execution, every pairing of two faults, and budget exhaustion.
func diffCases() []diffCase {
	S, D, N := fault.SDC, fault.DUE, fault.None
	return []diffCase{
		{"sdc-primary", 0, []fault.Outcome{S}},
		{"sdc-replica", 0, []fault.Outcome{N, S}},
		{"sdc-reexec", 0, []fault.Outcome{N, N, S}},
		{"due-primary", 0, []fault.Outcome{D}},
		{"due-replica", 0, []fault.Outcome{N, D}},
		{"due-reexec", 0, []fault.Outcome{N, N, D}},
		{"sdc-sdc", 0, []fault.Outcome{S, N, S}},
		{"sdc-sdc-pair", 0, []fault.Outcome{S, S}},
		{"due-sdc", 0, []fault.Outcome{D, S}},
		{"sdc-due", 0, []fault.Outcome{S, D}},
		{"due-then-sdc-reexec", 0, []fault.Outcome{D, N, S}},
		{"sdc-then-due-reexec", 0, []fault.Outcome{S, N, D}},
		{"due-due", 0, []fault.Outcome{D, D}},
		{"due-then-due-reexec", 0, []fault.Outcome{D, N, D}},
		{"sdc-every-attempt-max3", 3, []fault.Outcome{S, S, S}},
		{"sdc-every-attempt-max5", 5, []fault.Outcome{S, S, S, S, S}},
		{"due-every-attempt-max3", 3, []fault.Outcome{D, D, D}},
		{"due-every-attempt-max5", 5, []fault.Outcome{D, D, D, D, D}},
		{"lone-sdc-survivor-max3", 3, []fault.Outcome{D, S, D}},
		{"lone-sdc-survivor-max5", 5, []fault.Outcome{D, S, D, D, D}},
	}
}

// script programs c into every task id in ids (0 entries are skipped).
// Each attempt's SDC flips its own bit, so no two corrupted outputs agree:
// byte comparison would accept a same-bit pair the simulator never does
// (TestSameBitSDCsAgreeUndetected in internal/rt pins that limit).
func (c diffCase) script(ids []uint64) *fault.Script {
	s := fault.NewScript()
	for _, id := range ids {
		if id == 0 {
			continue
		}
		for att, o := range c.attempt {
			s.Set(id, att, o).SetBit(id, att, int64(att+1))
		}
	}
	return s
}

// rtIDs maps each job task index to the id the real runtime gives the same
// task, or 0 for a job-only task. The runtime numbers tasks 1, 2, ... in
// submission order and the simulator numbers task i as i+1, so for most
// builders the map is the identity. A job may model work the runtime does
// outside the task graph — matmul fills A and B in Go before submitting,
// where its job has initA/initB tasks — so the runtime's label stream is
// matched, in order, as a subsequence of the job's; every runtime task
// must find its place.
func rtIDs(t *testing.T, w workload.Workload, job cluster.Job) []uint64 {
	t.Helper()
	tr := trace.New()
	r := rt.New(rt.Config{Workers: 1, Tracer: tr})
	w.BuildRT(r, workload.Tiny)
	if err := r.Shutdown(); err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(tr.Records()))
	for _, rec := range tr.Records() {
		labels[rec.TaskID-1] = rec.Label
	}
	ids := make([]uint64, len(job.Tasks))
	next := 0
	for k, label := range labels {
		for next < len(job.Tasks) && job.Tasks[next].Label != label {
			next++
		}
		if next == len(job.Tasks) {
			t.Fatalf("runtime task %d (%q) has no counterpart in the job", k+1, label)
		}
		ids[next] = uint64(k + 1)
		next++
	}
	return ids
}

// TestRecoveryDifferential is the proof behind DESIGN.md §2's "only the
// clock is substituted": every Table-I workload runs under the same fault
// scripts on the real runtime and on the cluster simulator, both with full
// replication, and the two must count identical recovery activity.
func TestRecoveryDifferential(t *testing.T) {
	cm := workload.DefaultCostModel()
	for _, w := range All() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			job := w.BuildJob(workload.Tiny, 1, cm)
			ids := rtIDs(t, w, job)
			replicated := cluster.All(len(job.Tasks))
			simIDs := make([]uint64, len(job.Tasks))
			for i, id := range ids {
				// A job-only task is neither replicated nor faulted: the
				// runtime never runs it.
				replicated[i] = id != 0
				if id != 0 {
					simIDs[i] = uint64(i + 1)
				}
			}
			for _, c := range diffCases() {
				r := rt.New(rt.Config{Workers: 2, Selector: core.ReplicateAll{},
					Injector: c.script(ids), MaxAttempts: c.max})
				verify := w.BuildRT(r, workload.Tiny)
				err := r.Shutdown()
				st := r.Stats()
				got := recoveryCounts{int(st.Replicated), int(st.SDCDetected),
					int(st.DUERecovered), int(st.Reexecutions), int(st.VoteFailures)}
				if (err != nil) != (st.VoteFailures > 0) || (err != nil && !vote.IsNoMajority(err)) {
					t.Fatalf("%s: runtime error %v with %d vote failures", c.name, err, st.VoteFailures)
				}
				if err == nil {
					if verr := verify(); verr != nil {
						t.Fatalf("%s: recovered run is wrong: %v", c.name, verr)
					}
				}

				res, serr := cluster.Run(job, cluster.Config{Nodes: 1, CoresPerNode: 2,
					Replicated: replicated, Injector: c.script(simIDs), MaxAttempts: c.max})
				if serr != nil {
					t.Fatalf("%s: %v", c.name, serr)
				}
				want := recoveryCounts{res.Replicated, res.SDCDetected,
					res.DUERecovered, res.Reexecutions, res.VoteFailures}
				if got != want {
					t.Errorf("%s: runtime %+v, simulator %+v", c.name, got, want)
				}
			}
		})
	}
}
