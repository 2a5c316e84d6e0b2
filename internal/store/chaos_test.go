// Chaos harness: prove the store's recovery invariants under real process
// death. The parent (TestChaosRecovery) plants a crash at every mutating
// filesystem operation of a fixed workload in turn; for each point it
// re-executes this test binary as a child (TestChaosChild) whose injector
// kills the process mid-operation — torn half-written temps, skipped
// fsyncs, renames that never happen, directory syncs that never happen.
//
// The child journals every store mutation to a progress file ("try" before
// the call, "ok" after a nil return). An acknowledged Put is a durable Put,
// so the parent can replay the journal and assert the invariants the rest
// of the system builds on:
//
//  1. reopening after a crash never fails (recovery is total);
//  2. every acknowledged record survives with its exact value — the only
//     admissible other value is the single in-flight write the crash
//     interrupted;
//  3. nothing is skipped (a kill never manufactures a corrupt record
//     file), and no temp debris remains after the reopen.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"compisa/internal/fault"
)

const (
	chaosChildEnv = "COMPISA_STORE_CHAOS_CHILD"
	chaosCrashEnv = "COMPISA_STORE_CHAOS_CRASH_AT"
	chaosDirEnv   = "COMPISA_STORE_CHAOS_DIR"
	// chaosPoints is the number of mutating operations in the workload:
	// the directory's creation (one fsync of its parent) and 16 Puts of
	// four operations each (temp write, temp fsync, rename, directory
	// fsync). The parent plants a crash at every one of them.
	chaosPoints = 1 + 16*4
)

// TestChaosChild is the subprocess body; it skips unless the parent set
// the environment. It never returns on a crash point — the injector calls
// os.Exit(fault.StoreCrashExitCode) mid-operation.
func TestChaosChild(t *testing.T) {
	if os.Getenv(chaosChildEnv) == "" {
		t.Skip("chaos child: spawned by TestChaosRecovery")
	}
	crashAt, err := strconv.ParseInt(os.Getenv(chaosCrashEnv), 10, 64)
	if err != nil {
		t.Fatalf("bad %s: %v", chaosCrashEnv, err)
	}
	if err := runChaosChild(os.Getenv(chaosDirEnv), crashAt); err != nil {
		t.Fatalf("chaos child: %v", err)
	}
}

// runChaosChild executes the deterministic workload with a crash planted
// at the crashAt-th mutating store operation.
func runChaosChild(dir string, crashAt int64) error {
	progress, err := os.OpenFile(filepath.Join(dir, "progress.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer progress.Close()
	journal := func(phase, key, val string) {
		fmt.Fprintf(progress, "%s %s %s\n", phase, key, val)
	}

	inj, err := fault.NewStoreInjector(fault.StoreConfig{CrashAt: crashAt})
	if err != nil {
		return err
	}
	s, err := Open(filepath.Join(dir, "profiles"), Options{FS: NewFaultFS(inj)})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	put := func(key, val string) error {
		journal("try", key, val)
		if err := s.Put(key, []byte(val)); err != nil {
			return err
		}
		journal("ok", key, val)
		return nil
	}
	// Phase 1: one record per key.
	for i := 0; i < 12; i++ {
		if err := put(fmt.Sprintf("key-%02d", i), fmt.Sprintf("v1-%02d", i)); err != nil {
			return err
		}
	}
	// Phase 2: overwrite a prefix (last write wins across a crash, and a
	// crash mid-overwrite must leave the previous record whole).
	for i := 0; i < 4; i++ {
		if err := put(fmt.Sprintf("key-%02d", i), fmt.Sprintf("v2-%02d", i)); err != nil {
			return err
		}
	}
	if n := inj.Ops(); n != chaosPoints {
		return fmt.Errorf("workload ran %d mutating operations, want chaosPoints = %d", n, chaosPoints)
	}
	return nil
}

// chaosOutcome is one crash point's verdict, serialized into the recovery
// report artifact.
type chaosOutcome struct {
	CrashAt   int    `json:"crash_at"`
	Crashed   bool   `json:"crashed"`
	Records   int    `json:"records"`
	Skipped   int    `json:"skipped"`
	AckedPuts int    `json:"acked_puts"`
	Failure   string `json:"failure,omitempty"`
}

func TestChaosRecovery(t *testing.T) {
	if os.Getenv(chaosChildEnv) != "" {
		t.Skip("chaos parent must not recurse")
	}
	if testing.Short() {
		t.Skip("chaos sweep spawns subprocesses; skipped in -short")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	outcomes := make([]chaosOutcome, 0, chaosPoints+1)
	crashed := 0
	// Point 0 runs the workload crash-free to validate the harness itself;
	// points 1..chaosPoints each kill the child at a distinct operation.
	for point := 0; point <= chaosPoints; point++ {
		dir := t.TempDir()
		cmd := exec.Command(bin, "-test.run", "^TestChaosChild$")
		cmd.Env = append(os.Environ(),
			chaosChildEnv+"=1",
			chaosCrashEnv+"="+strconv.Itoa(point),
			chaosDirEnv+"="+dir,
		)
		out, runErr := cmd.CombinedOutput()
		o := chaosOutcome{CrashAt: point}
		switch code := cmd.ProcessState.ExitCode(); {
		case runErr == nil:
			// Child completed the whole workload without hitting the
			// crash point.
		case code == fault.StoreCrashExitCode:
			o.Crashed = true
			crashed++
		default:
			t.Fatalf("crash point %d: child failed organically (exit %d):\n%s", point, code, out)
		}
		verifyChaosRecovery(t, dir, &o)
		outcomes = append(outcomes, o)
	}
	// Every point must have killed the child: a point past the workload's
	// last operation would pass without testing anything.
	if crashed != chaosPoints {
		t.Errorf("%d of %d points crashed the child, want all", crashed, chaosPoints)
	}
	writeChaosReport(t, outcomes)
}

// verifyChaosRecovery reopens the store a crashed (or completed) child
// left behind and checks the recovery invariants against its journal.
func verifyChaosRecovery(t *testing.T, dir string, o *chaosOutcome) {
	t.Helper()
	acked, inflight := replayJournal(t, filepath.Join(dir, "progress.log"))
	o.AckedPuts = len(acked)

	storeDir := filepath.Join(dir, "profiles")
	s, err := Open(storeDir, Options{})
	if err != nil {
		t.Errorf("crash point %d: reopen failed: %v (invariant: recovery is total)", o.CrashAt, err)
		o.Failure = fmt.Sprintf("reopen: %v", err)
		return
	}
	records := map[string]string{}
	o.Skipped, err = s.Range(func(key string, val []byte) error {
		records[key] = string(val)
		return nil
	})
	o.Records = len(records)
	if err != nil || o.Skipped != 0 {
		t.Errorf("crash point %d: %d records skipped (%v); a kill must never damage a record file", o.CrashAt, o.Skipped, err)
		o.Failure = "skipped records after kill"
	}
	if d := debris(t, storeDir); len(d) != 0 {
		t.Errorf("crash point %d: %v left in the store after reopen", o.CrashAt, d)
		o.Failure = "temp debris after reopen"
	}
	for key, want := range acked {
		got, ok := records[key]
		if !ok {
			t.Errorf("crash point %d: acknowledged record %s lost", o.CrashAt, key)
			o.Failure = "acknowledged record lost"
			continue
		}
		if got == want {
			continue
		}
		// The only admissible deviation: the crash interrupted a later
		// overwrite of this key after its rename.
		if try, ok := inflight[key]; ok && got == try {
			continue
		}
		t.Errorf("crash point %d: %s = %q, want %q (or in-flight %q)", o.CrashAt, key, got, want, inflight[key])
		o.Failure = "wrong value after recovery"
	}
}

// replayJournal parses the child's progress file: the last acknowledged
// value per key, plus the (single) in-flight try the crash interrupted.
func replayJournal(t *testing.T, path string) (acked, inflight map[string]string) {
	t.Helper()
	acked, inflight = map[string]string{}, map[string]string{}
	f, err := os.Open(path)
	if err != nil {
		// Crash before the first journal line (while creating the store
		// directory): nothing was acknowledged, nothing to check.
		return acked, inflight
	}
	defer f.Close()
	tries := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), " ", 3)
		if len(parts) != 3 {
			continue
		}
		phase, key, val := parts[0], parts[1], parts[2]
		switch phase {
		case "try":
			tries[key] = val
		case "ok":
			acked[key] = val
			delete(tries, key)
		}
	}
	for key, val := range tries {
		inflight[key] = val
	}
	return acked, inflight
}

// writeChaosReport persists the sweep's outcomes when CHAOS_REPORT names a
// file (the CI job uploads it as an artifact on failure).
func writeChaosReport(t *testing.T, outcomes []chaosOutcome) {
	t.Helper()
	path := os.Getenv("CHAOS_REPORT")
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(outcomes, "", "  ")
	if err != nil {
		t.Fatalf("chaos report: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Errorf("chaos report: %v", err)
	}
	t.Logf("chaos report: %d outcomes written to %s", len(outcomes), path)
}
