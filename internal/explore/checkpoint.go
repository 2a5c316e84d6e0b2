// Checkpoint/resume for the exploration pipeline: the profile tier (the
// expensive functional executions), the quarantine list, the evaluated
// design points (RunDurable re-scores them), the pipeline stats, and the
// search frontier serialize to one JSON file, so a killed run resumes
// instead of recomputing. Saves are atomic and durable (atomicfile); a
// missing file is an empty checkpoint, and a corrupt or future-versioned
// file is an ErrCheckpointCorrupt error rather than a silent partial
// restore — RecoverCheckpoint turns that into a quarantine-and-start-cold
// path.

package explore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"compisa/internal/atomicfile"
	"compisa/internal/eval"
	"compisa/internal/metrics"
)

// ErrCheckpointCorrupt wraps every checkpoint failure that a retry cannot
// fix: undecodable JSON (truncated or garbage file) and unusable versions.
// Callers distinguish it from I/O errors to decide between degrading (start
// cold, quarantine the file — see RecoverCheckpoint) and failing loudly.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// checkpointVersion gates restores: bump it whenever the profile or design
// point schema changes incompatibly. Version 3 switched the profile's ILP
// and mispredict curves from JSON maps to fixed arrays (the struct-of-arrays
// profile layout); earlier versions serialized those fields as objects and
// cannot be decoded into the current schema, so they are rejected as corrupt
// and quarantined by RecoverCheckpoint rather than silently misread.
// Version 4 switched vendor ISAs with a real encoding backend (x86-64,
// Alpha) from analytic CodeDensity scaling to measured target profiles;
// vendor design points cached by earlier versions carry scaled metrics the
// current pipeline would never produce. Older version 4 files also carry
// "candidates" and "ref" blocks, which load ignored.
const checkpointVersion = 4

// SavedSearch records one completed multicore search as its four design
// points; resume re-evaluates the points against the restored caches,
// which reproduces the exact cores (evaluation is deterministic).
type SavedSearch struct {
	Score  float64        `json:"score"`
	Points [4]DesignPoint `json:"points"`
}

// CheckpointState is the serialized resume state: the DB's exported state
// plus the search frontier.
type CheckpointState struct {
	Version int `json:"version"`
	eval.State
	Frontier map[string]SavedSearch `json:"frontier,omitempty"`
}

// Snapshot captures the DB's caches and (if s is non-nil) the Searcher's
// frontier into a checkpoint state.
func Snapshot(db *DB, s *Searcher) *CheckpointState {
	st := &CheckpointState{Version: checkpointVersion, State: db.Export()}
	if s != nil {
		st.Frontier = s.exportFrontier()
	}
	return st
}

// RestoreSearcher seeds the search frontier.
func (st *CheckpointState) RestoreSearcher(s *Searcher) {
	if st == nil {
		return
	}
	s.importFrontier(st.Frontier)
}

// LoadCheckpoint reads a checkpoint file; a missing file yields (nil, nil).
// Only the current version loads: older files predate the struct-of-arrays
// profile schema and decode incorrectly, so they are reported as
// ErrCheckpointCorrupt (RecoverCheckpoint quarantines them and starts cold),
// as is a stats block holding a negative count, sum or bucket.
func LoadCheckpoint(path string) (*CheckpointState, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("explore: load checkpoint: %w", err)
	}
	var st CheckpointState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("explore: checkpoint %s: %w: %w", path, ErrCheckpointCorrupt, err)
	}
	if st.Version != checkpointVersion {
		return nil, fmt.Errorf("explore: checkpoint %s: %w: version %d, want %d",
			path, ErrCheckpointCorrupt, st.Version, checkpointVersion)
	}
	if err := metrics.CheckSnapshot(st.Stats); err != nil {
		return nil, fmt.Errorf("explore: checkpoint %s: %w: %w", path, ErrCheckpointCorrupt, err)
	}
	return &st, nil
}

// RecoverCheckpoint loads a checkpoint, degrading gracefully on corruption:
// an unusable file (ErrCheckpointCorrupt) is renamed aside to
// <path>.corrupt for post-mortem and the run starts cold with a nil state.
// quarantined reports the rename target when that happened. Genuine I/O
// errors (permissions, transient filesystem faults) still fail — retrying
// those can succeed, and silently discarding a readable checkpoint would
// throw away real work.
func RecoverCheckpoint(path string) (st *CheckpointState, quarantined string, err error) {
	st, err = LoadCheckpoint(path)
	if err == nil {
		return st, "", nil
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		return nil, "", err
	}
	dst := path + ".corrupt"
	if rerr := os.Rename(path, dst); rerr != nil {
		return nil, "", fmt.Errorf("explore: quarantine corrupt checkpoint: %w (load error: %w)", rerr, err)
	}
	return nil, dst, nil
}

// openCheckpoint loads the checkpoint a run starts from. A strict open
// fails on a corrupt file; otherwise the file is quarantined (see
// RecoverCheckpoint), logf reports where it went, and the run starts cold
// with a nil state.
func openCheckpoint(path string, strict bool, logf func(format string, args ...any)) (*CheckpointState, error) {
	if strict {
		return LoadCheckpoint(path)
	}
	st, quarantined, err := RecoverCheckpoint(path)
	if quarantined != "" {
		logf("[corrupt checkpoint quarantined to %s; starting cold]", quarantined)
	}
	return st, err
}

// SaveCheckpoint writes the state atomically and durably (see atomicfile),
// so a crash mid-save never leaves a truncated or missing checkpoint.
func SaveCheckpoint(path string, st *CheckpointState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("explore: save checkpoint: %w", err)
	}
	if err := atomicfile.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("explore: save checkpoint: %w", err)
	}
	return nil
}
