package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"holistic/internal/core"
	"holistic/internal/durable"
	"holistic/internal/incremental"
)

// The state WAL journals every durable transition as one JSON record. Replay
// is map-based (admissions and terminal records are matched by job ID, not
// by position), because an end record written by a fast worker can land
// before the admitting handler's record under concurrency; only the relative
// order of a dataset's batch admissions matters, and those are serialized by
// the per-dataset busy flag.
const (
	recJob      = "job"      // plain job admitted: Job, Req
	recDataset  = "dataset"  // dataset created: Dataset, Req
	recDSJob    = "dsjob"    // dataset job admitted: Job, Dataset, Kind (+Rows for batches)
	recEnd      = "end"      // job reached a terminal state: Job, State, Error (+Dataset)
	recShutdown = "shutdown" // clean drain completed
)

// Dataset job kinds journaled in recDSJob records.
const (
	dsJobProfile = "profile"
	dsJobBatch   = "batch"
)

// walRecord is the serialized form of one journal entry. Unknown types are
// skipped on replay so older daemons tolerate newer logs.
type walRecord struct {
	Type    string      `json:"type"`
	Time    time.Time   `json:"time,omitempty"`
	Job     string      `json:"job,omitempty"`
	Dataset string      `json:"dataset,omitempty"`
	Kind    string      `json:"kind,omitempty"`
	Req     *jobRequest `json:"req,omitempty"`
	Rows    [][]string  `json:"rows,omitempty"`
	State   string      `json:"state,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// datasetCheckpoint is the payload of a per-dataset checkpoint file: the
// incremental snapshot (the exact warm-profiler state) plus the last
// completed report, written atomically after every successful dataset job.
type datasetCheckpoint struct {
	Dataset  string                `json:"dataset"`
	Version  int                   `json:"version"`
	Snapshot *incremental.Snapshot `json:"snapshot"`
	Report   *core.Report          `json:"report"`
}

// store is the server's durability layer: the state WAL plus the checkpoint
// directory. nil store (no -state-dir) disables journaling entirely.
type store struct {
	dir string
	wal *durable.WAL
}

func openStore(dir string) (*store, *durable.Replay, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	wal, replay, err := durable.OpenWAL(filepath.Join(dir, "profiled.wal"))
	if err != nil {
		return nil, nil, err
	}
	return &store{dir: dir, wal: wal}, replay, nil
}

func (st *store) append(rec walRecord) error {
	rec.Time = time.Now().UTC()
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return st.wal.Append(data)
}

func (st *store) checkpointPath(datasetID string) string {
	return filepath.Join(st.dir, datasetID+".ckpt")
}

func (st *store) writeCheckpoint(ck *datasetCheckpoint) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return durable.WriteCheckpoint(st.checkpointPath(ck.Dataset), payload)
}

func (st *store) readCheckpoint(datasetID string) (*datasetCheckpoint, error) {
	payload, err := durable.ReadCheckpoint(st.checkpointPath(datasetID))
	if err != nil {
		return nil, err
	}
	var ck datasetCheckpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil, fmt.Errorf("%w: checkpoint %s payload: %v", durable.ErrCorrupt, datasetID, err)
	}
	return &ck, nil
}

func (st *store) close() error { return st.wal.Close() }

// --- journaling hooks (no-ops without a store) ---

// journal appends one record, counting it. The returned error means the
// record is not durable; admission call sites reject the request on it,
// terminal call sites log and carry on (the in-memory transition already
// happened, and recovery degrades safely: a missing end record reads as a
// lost job, never as a wrong result).
func (s *Server) journal(rec walRecord) error {
	if s.store == nil {
		return nil
	}
	if err := s.store.append(rec); err != nil {
		s.metrics.walErrors.Add(1)
		return err
	}
	s.metrics.walRecords.Add(1)
	return nil
}

// journalEnd records a job's terminal transition, best-effort.
func (s *Server) journalEnd(j *job, state, errMsg string) {
	if s.store == nil || !j.journaled {
		return
	}
	if err := s.journal(walRecord{Type: recEnd, Job: j.id, Dataset: j.datasetID, State: state, Error: errMsg}); err != nil {
		s.logf("journal: end record for job %s: %v", j.id, err)
	}
}

// --- recovery ---

// RecoveryStats summarizes what Open reconstructed from a state directory.
type RecoveryStats struct {
	// WALRecords is the number of valid journal records replayed.
	WALRecords int
	// TornTailBytes is the size of the torn tail truncated from the WAL
	// (0 when the log ended cleanly).
	TornTailBytes int64
	// CleanShutdown reports whether the log ends with a drain marker.
	CleanShutdown bool
	// RestoredJobs counts terminal job records restored for status queries.
	RestoredJobs int
	// ReplayedJobs counts plain jobs that were queued or running at the
	// crash and were re-enqueued to run again.
	ReplayedJobs int
	// LostJobs counts dataset jobs that were in flight at the crash and
	// were finished as "lost" (their sessions are poisoned).
	LostJobs int
	// RecoveredSessions counts dataset sessions restored warm (ready).
	RecoveredSessions int
	// FailedSessions counts dataset sessions restored poisoned — by a
	// journaled failure, an in-flight job at the crash, or a checkpoint
	// that was missing, corrupt, or mismatched.
	FailedSessions int
}

// replayedJob aggregates everything the journal says about one job ID.
type replayedJob struct {
	id       string
	req      *jobRequest
	dataset  string
	kind     string
	rows     [][]string
	admitted time.Time
	endState string
	endErr   string
	hasEnd   bool
}

// replayedDataset aggregates one dataset's journal records.
type replayedDataset struct {
	id      string
	req     *jobRequest
	created time.Time
	jobIDs  []string // admission order; batches apply in this order
}

// recoverState rebuilds the server's jobs and dataset sessions from the
// replayed journal. It runs before the worker pool starts, so it owns all
// state without locking. Replay order per job: admissions define existence,
// end records settle outcomes; a journaled job without an end record was in
// flight when the process died.
func (s *Server) recoverState(replay *durable.Replay) (RecoveryStats, []*job) {
	stats := RecoveryStats{TornTailBytes: replay.TruncatedBytes}
	if replay.Truncated() {
		s.metrics.tornTailTruncations.Add(1)
		s.logf("recovery: truncated %d bytes of torn WAL tail", replay.TruncatedBytes)
	}

	jobs := map[string]*replayedJob{}
	var jobOrder []string
	datasets := map[string]*replayedDataset{}
	var dsOrder []string
	upsertJob := func(id string) *replayedJob {
		rj, ok := jobs[id]
		if !ok {
			rj = &replayedJob{id: id}
			jobs[id] = rj
			jobOrder = append(jobOrder, id)
		}
		return rj
	}
	for _, payload := range replay.Records {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			s.logf("recovery: skipping undecodable journal record: %v", err)
			continue
		}
		stats.WALRecords++
		stats.CleanShutdown = rec.Type == recShutdown // only counts as last record
		switch rec.Type {
		case recJob:
			rj := upsertJob(rec.Job)
			rj.req = rec.Req
			rj.admitted = rec.Time
		case recDataset:
			if _, ok := datasets[rec.Dataset]; !ok {
				dsOrder = append(dsOrder, rec.Dataset)
			}
			datasets[rec.Dataset] = &replayedDataset{id: rec.Dataset, req: rec.Req, created: rec.Time}
		case recDSJob:
			rj := upsertJob(rec.Job)
			rj.dataset = rec.Dataset
			rj.kind = rec.Kind
			rj.rows = rec.Rows
			rj.admitted = rec.Time
			if d, ok := datasets[rec.Dataset]; ok {
				d.jobIDs = append(d.jobIDs, rec.Job)
			}
		case recEnd:
			rj := upsertJob(rec.Job)
			rj.hasEnd = true
			rj.endState = rec.State
			rj.endErr = rec.Error
		case recShutdown:
			// marker only
		default:
			s.logf("recovery: skipping unknown journal record type %q", rec.Type)
		}
	}

	// Restore the ID counters past everything the journal has seen.
	for id := range jobs {
		if n, ok := numericSuffix(id, "j-"); ok && n > s.nextID {
			s.nextID = n
		}
	}
	for id := range datasets {
		if n, ok := numericSuffix(id, "d-"); ok && n > s.nextDSID {
			s.nextDSID = n
		}
	}

	for _, id := range dsOrder {
		s.recoverDataset(datasets[id], jobs, &stats)
	}

	// Plain jobs: terminal records are restored for status queries; in-
	// flight ones are rebuilt and re-enqueued (their requests are self-
	// contained). Dataset jobs were settled by recoverDataset above.
	var requeue []*job
	for _, id := range jobOrder {
		rj := jobs[id]
		if rj.dataset != "" {
			continue
		}
		if rj.req == nil {
			// An end record without its admission (the admission was in the
			// torn tail): nothing to restore beyond a terminal stub.
			if rj.hasEnd {
				s.restoreTerminalJob(rj, nil, &stats)
			}
			continue
		}
		if rj.hasEnd {
			s.restoreTerminalJob(rj, rj.req, &stats)
			continue
		}
		if j := s.rebuildPlainJob(rj, &stats); j != nil {
			requeue = append(requeue, j)
		}
	}
	return stats, requeue
}

// recoverDataset restores one dataset session: ready (warm profiler resumed
// from its checkpoint plus the replayed batches) or failed (poisoned), and
// registers every journaled job of the session with a terminal state.
func (s *Server) recoverDataset(rd *replayedDataset, jobs map[string]*replayedJob, stats *RecoveryStats) {
	now := time.Now().UTC()
	created := rd.created
	if created.IsZero() {
		created = now
	}
	d := &dataset{id: rd.id, req: *rd.req, created: created, updated: now, jobIDs: rd.jobIDs}

	// Load the checkpoint first: the last completed profile generation.
	// Corruption is a metered, logged poison — never silently replayed.
	ck, ckErr := s.store.readCheckpoint(rd.id)
	if ckErr != nil && errors.Is(ckErr, durable.ErrCorrupt) {
		s.metrics.corruptCheckpoints.Add(1)
		s.logf("recovery: dataset %s: %v", rd.id, ckErr)
	}

	// Resurrection: the busy flag serializes dataset jobs, so only the LAST
	// journaled job of a session can lack a terminal record. Its work ends
	// with an fsync'd checkpoint BEFORE the terminal record is journaled —
	// so when the checkpoint's version already accounts for that job, the
	// job in fact completed and only its end record was torn away by the
	// crash. It is finished as done instead of poisoning the session.
	if n := len(rd.jobIDs); n > 0 && ck != nil {
		doneBefore := 0
		for _, jid := range rd.jobIDs[:n-1] {
			if rj := jobs[jid]; rj.hasEnd && rj.endState == StateDone {
				doneBefore++
			}
		}
		last := jobs[rd.jobIDs[n-1]]
		if !last.hasEnd && ck.Version == doneBefore+1 {
			last.hasEnd = true
			last.endState = StateDone
			s.logf("recovery: dataset %s: job %s completed before the crash (checkpoint v%d); terminal record restored", rd.id, last.id, ck.Version)
			if err := s.journal(walRecord{Type: recEnd, Job: last.id, Dataset: rd.id, State: StateDone}); err != nil {
				s.logf("journal: restored end record for %s: %v", last.id, err)
			}
		}
	}

	// Settle every journaled job of the session. In-flight jobs become
	// "lost": their outcome is unknown, which poisons the session exactly
	// like any other non-done terminal state.
	poisonErr := ""
	var applied [][][]string
	for _, jid := range rd.jobIDs {
		rj := jobs[jid]
		if !rj.hasEnd {
			rj.hasEnd = true
			rj.endState = StateLost
			rj.endErr = "server restarted while the job was queued or running"
			stats.LostJobs++
			s.metrics.lostJobs.Add(1)
			// Persist the verdict so the next restart agrees without
			// re-deriving it.
			if err := s.journal(walRecord{Type: recEnd, Job: jid, Dataset: rd.id, State: StateLost, Error: rj.endErr}); err != nil {
				s.logf("journal: lost-job record for %s: %v", jid, err)
			}
		}
		if rj.endState == StateDone && rj.kind == dsJobBatch {
			applied = append(applied, rj.rows)
		}
		if rj.endState != StateDone && poisonErr == "" {
			poisonErr = fmt.Sprintf("job %s %s", jid, rj.endState)
			if rj.endErr != "" {
				poisonErr += ": " + rj.endErr
			}
		}
		s.restoreTerminalJob(rj, &d.req, stats)
	}

	if ck != nil {
		d.report = ck.Report
		d.version = ck.Version
	}

	switch {
	case poisonErr != "":
		d.state = DatasetFailed
		d.err = poisonErr
	case ck == nil:
		d.state = DatasetFailed
		if os.IsNotExist(ckErr) {
			d.err = "no checkpoint: the initial profile never completed"
		} else {
			d.err = fmt.Sprintf("corrupt checkpoint: %v", ckErr)
		}
	default:
		if err := s.resumeSession(d, ck, applied); err != nil {
			d.state = DatasetFailed
			d.err = fmt.Sprintf("resume from checkpoint: %v", err)
			d.prof = nil
			s.logf("recovery: dataset %s: %v", rd.id, err)
		}
	}

	// The journaled creation record keeps the session's input for the next
	// restart; the session itself has reloaded its relation (or is failed),
	// so it drops the CSV.
	d.req.CSV = ""
	if d.state == DatasetFailed {
		stats.FailedSessions++
		s.logf("recovery: dataset %s restored failed: %s", d.id, d.err)
	} else {
		stats.RecoveredSessions++
		s.metrics.recoveredSessions.Add(1)
		s.logf("recovery: dataset %s restored ready at version %d (%d batches replayed)", d.id, d.version, len(applied))
	}
	s.datasets[d.id] = d
	s.dsOrder = append(s.dsOrder, d.id)
}

// resumeSession rebuilds a warm profiler: the creation request's relation is
// reloaded, every applied batch is folded back in (cheap dictionary appends,
// no discovery), and the checkpoint snapshot — which fingerprints the exact
// relation it profiled — is resumed on top. Any mismatch (changed source
// file, missing batch, wrong order) fails the fingerprint check and poisons
// the session instead of serving wrong metadata.
func (s *Server) resumeSession(d *dataset, ck *datasetCheckpoint, applied [][][]string) error {
	_, src, _, err := d.req.normalize(s.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("reload dataset: %w", err)
	}
	rel, err := src.Load()
	if err != nil {
		return fmt.Errorf("reload dataset: %w", err)
	}
	for i, rows := range applied {
		if _, err := rel.Append(rows); err != nil {
			return fmt.Errorf("replay batch %d: %w", i+1, err)
		}
	}
	opts := d.req.options()
	if opts.MaxCacheBytes == 0 {
		opts.MaxCacheBytes = s.cfg.MaxCacheBytes
	}
	prof, err := incremental.Resume(rel, ck.Snapshot, opts)
	if err != nil {
		return err
	}
	d.prof = prof
	d.state = DatasetReady
	d.version = ck.Version
	return nil
}

// restoreTerminalJob registers a terminal job record rebuilt from the
// journal. Results are not journaled, so restored jobs carry state and error
// only; for datasets the last report lives in the checkpoint instead.
func (s *Server) restoreTerminalJob(rj *replayedJob, req *jobRequest, stats *RecoveryStats) {
	j := &job{
		id:        rj.id,
		state:     rj.endState,
		err:       rj.endErr,
		datasetID: rj.dataset,
		journaled: true,
		submitted: rj.admitted,
		finished:  time.Now().UTC(),
		events:    newEventLog(),
	}
	if req != nil {
		j.req = *req
		// The idempotency key rides inside the journaled request, so the
		// dedup table survives the restart: a client retrying a submission it
		// made before the crash gets this record back, not a duplicate run.
		j.idemKey = req.IdempotencyKey
	}
	// Like a live terminal record, a restored one keeps the request's
	// metadata but not its input.
	j.release()
	j.events.append(JobEvent{Event: core.Event{Type: EventReplay}})
	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: rj.endState, Error: rj.endErr})
	j.events.close()
	s.registerLocked(j)
	stats.RestoredJobs++
}

// rebuildPlainJob reconstructs an in-flight plain job for re-execution. A
// request that no longer normalizes (e.g. its data-dir file vanished) is
// restored failed instead.
func (s *Server) rebuildPlainJob(rj *replayedJob, stats *RecoveryStats) *job {
	// No 400 path here: the original admission already validated the
	// requested timeout.
	j := &job{
		id:        rj.id,
		req:       *rj.req,
		idemKey:   rj.req.IdempotencyKey,
		state:     StateQueued,
		journaled: true,
		submitted: rj.admitted,
		timeout:   s.cfg.jobTimeout(rj.req.TimeoutSeconds),
		events:    newEventLog(),
	}
	j.events.append(JobEvent{Event: core.Event{Type: EventReplay}})
	key, src, _, err := j.req.normalize(s.cfg.DataDir)
	// The journal keeps the admitted request; from here on the job's bytes
	// live in src alone.
	j.req.CSV = ""
	if err != nil {
		j.state = StateFailed
		j.err = fmt.Sprintf("replay: %v", err)
		j.finished = time.Now().UTC()
		j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: StateFailed, Error: j.err})
		j.events.close()
		s.registerLocked(j)
		s.journalEnd(j, StateFailed, j.err)
		stats.RestoredJobs++
		return nil
	}
	j.key = key
	j.src = src
	j.events.append(JobEvent{Event: core.Event{Type: EventState}, State: StateQueued})
	s.registerLocked(j)
	stats.ReplayedJobs++
	s.metrics.replayedJobs.Add(1)
	s.logf("recovery: job %s re-enqueued (was in flight at shutdown)", j.id)
	return j
}

// finalizeStore is the drain-time half of durability: once every worker has
// unwound, ready sessions get a final checkpoint (idempotent — they are
// checkpointed after every completed job — but it heals any earlier
// checkpoint failure), a clean-shutdown marker is appended, and the WAL is
// closed.
func (s *Server) finalizeStore() {
	if s.store == nil || s.crashed.Load() {
		return
	}
	s.mu.Lock()
	ids := append([]string(nil), s.dsOrder...)
	ds := make([]*dataset, 0, len(ids))
	for _, id := range ids {
		ds = append(ds, s.datasets[id])
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.mu.Lock()
		prof := d.prof
		report := d.report
		version := d.version
		ready := d.state == DatasetReady
		d.mu.Unlock()
		if !ready || prof == nil {
			continue
		}
		ck := &datasetCheckpoint{Dataset: d.id, Version: version, Snapshot: prof.Snapshot(), Report: report}
		if err := s.store.writeCheckpoint(ck); err != nil {
			s.logf("drain: final checkpoint for dataset %s: %v", d.id, err)
			continue
		}
		s.metrics.checkpoints.Add(1)
	}
	if err := s.journal(walRecord{Type: recShutdown}); err != nil {
		s.logf("drain: shutdown marker: %v", err)
	}
	if err := s.store.close(); err != nil {
		s.logf("drain: close wal: %v", err)
	}
}

// crashForTest (restart tests only) simulates a kill -9 at this instant:
// the WAL is closed, so terminal records of still-running jobs never land,
// and the drain-time finalization (final checkpoints, shutdown marker) is
// suppressed. The caller still runs Shutdown to unwind goroutines; the state
// directory is left exactly as a dead process would leave it.
func (s *Server) crashForTest() {
	if s.store == nil {
		return
	}
	s.crashed.Store(true)
	_ = s.store.close()
}

// numericSuffix parses ids like "j-17" → 17.
func numericSuffix(id, prefix string) (int64, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.ParseInt(id[len(prefix):], 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
