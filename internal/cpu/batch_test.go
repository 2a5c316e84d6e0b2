package cpu

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"compisa/internal/code"
	"compisa/internal/mem"
)

// profiledRun is one profiled execution: the event stream the profiler
// consumed, the run's outcome and the encoded profile Finish returned.
type profiledRun struct {
	events []Event
	res    ExecResult
	err    string
	cpf    []byte
}

// profileEach runs pd under a fresh profiler through RunPredecoded's
// per-event adapter, one consume call per event.
func profileEach(t *testing.T, pd *Predecoded, opts RunOptions) profiledRun {
	t.Helper()
	pr := newProfiler(pd, 1<<10)
	defer pr.release()
	var out profiledRun
	res, err := RunPredecoded(pd, NewState(mem.New()), opts, func(ev *Event) {
		out.events = append(out.events, *ev)
		pr.consume(ev)
	})
	return out.finish(t, pr, res, err)
}

// profileBatched runs pd under a fresh profiler through the batch sink and
// buffer CollectProfileOpts uses.
func profileBatched(t *testing.T, pd *Predecoded, opts RunOptions) profiledRun {
	t.Helper()
	pr := newProfiler(pd, 1<<10)
	defer pr.release()
	var out profiledRun
	res, err := pr.run(NewState(mem.New()), opts, func(evs []Event) {
		if len(evs) == 0 || len(evs) > eventBatch {
			t.Errorf("sink handed %d events, want 1..%d", len(evs), eventBatch)
		}
		out.events = append(out.events, evs...)
		pr.consumeBatch(evs)
	})
	return out.finish(t, pr, res, err)
}

func (out profiledRun) finish(t *testing.T, pr *profiler, res ExecResult, err error) profiledRun {
	t.Helper()
	cpf, merr := pr.Finish().MarshalBinary()
	if merr != nil {
		t.Fatal(merr)
	}
	out.res, out.err, out.cpf = res, errString(err), cpf
	return out
}

// TestBatchBoundariesInvisible: the run loop hands events to the profiler
// in batches of eventBatch, flushing on every way out. Budgets on and off
// batch multiples, a failing Interrupt (at a stride that is no batch
// multiple, and at one that is) and a corrupt opcode deep in the run must
// each give the same event stream, ExecResult, error and Finish()ed
// profile through the per-event adapter as through the batch sink, and
// every event the executor counted must have reached the profiler.
func TestBatchBoundariesInvisible(t *testing.T) {
	kernel := l2SplitKernel(t)
	corrupt := l2SplitKernel(t)
	corrupt.Instrs[len(corrupt.Instrs)-1].Op = 0xEF // the RET, after the loop
	failAt := func(stride int64, poll int) RunOptions {
		polls := 0
		return RunOptions{MaxInstrs: 1 << 20, InterruptEvery: stride, Interrupt: func() error {
			if polls++; polls == poll {
				return context.Canceled
			}
			return nil
		}}
	}
	cases := []struct {
		name    string
		p       *code.Program
		opts    func() RunOptions
		wantErr bool
	}{
		{"budget batch-1", kernel, func() RunOptions { return RunOptions{MaxInstrs: eventBatch - 1} }, true},
		{"budget batch", kernel, func() RunOptions { return RunOptions{MaxInstrs: eventBatch} }, true},
		{"budget batch+1", kernel, func() RunOptions { return RunOptions{MaxInstrs: eventBatch + 1} }, true},
		{"budget 4 batches", kernel, func() RunOptions { return RunOptions{MaxInstrs: 4 * eventBatch} }, true},
		{"budget 15000", kernel, func() RunOptions { return RunOptions{MaxInstrs: 15_000} }, true},
		{"to RET", kernel, func() RunOptions { return RunOptions{MaxInstrs: 1 << 20} }, false},
		{"interrupt fails, stride 1000", kernel, func() RunOptions { return failAt(1000, 5) }, true},
		{"interrupt fails, stride batch", kernel, func() RunOptions { return failAt(eventBatch, 7) }, true},
		{"interrupt passes, stride 100", kernel, func() RunOptions { return failAt(100, -1) }, false},
		{"corrupt opcode", corrupt, func() RunOptions { return RunOptions{MaxInstrs: 1 << 20} }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pd := Predecode(tc.p)
			each, batched := profileEach(t, pd, tc.opts()), profileBatched(t, pd, tc.opts())
			if (batched.err != "") != tc.wantErr {
				t.Fatalf("error %q, want one: %v", batched.err, tc.wantErr)
			}
			// A failing instruction is counted but never delivered.
			delivered := batched.res.Instrs
			if tc.p == corrupt {
				delivered--
			}
			if int64(len(batched.events)) != delivered {
				t.Errorf("profiler saw %d events, executor counted %d", len(batched.events), delivered)
			}
			if !reflect.DeepEqual(each.events, batched.events) {
				t.Errorf("event streams differ: %d per event, %d batched", len(each.events), len(batched.events))
			}
			if each.res != batched.res || each.err != batched.err {
				t.Errorf("per event %+v %q, batched %+v %q", each.res, each.err, batched.res, batched.err)
			}
			if !bytes.Equal(each.cpf, batched.cpf) {
				t.Errorf("Finish()ed profiles differ")
			}
		})
	}
}

// TestILPRingsMatchWindows: each windowed lane's completion ring is as long
// as its ILP window, so the masks in consume model ILPWindows.
func TestILPRingsMatchWindows(t *testing.T) {
	var r ilpRings
	for wi, ring := range r.windows() {
		if len(ring) != ILPWindows[wi] {
			t.Errorf("window %d: ring of %d, ILPWindows says %d", wi, len(ring), ILPWindows[wi])
		}
	}
	if ILPWindows[ilpRefWindow] != ringRealLen {
		t.Errorf("real chain ring %d, reference window %d", ringRealLen, ILPWindows[ilpRefWindow])
	}
}
