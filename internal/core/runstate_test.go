package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/minic"
	"repro/internal/program"
)

func loopProgram(t *testing.T) *program.Image {
	t.Helper()
	im, err := minic.Compile(`
int main() {
	int i;
	int sum;
	sum = 0;
	for (i = 0; i < 100000; i++) {
		sum = sum + (i & 7);
	}
	return sum & 255;
}`)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestFlushPublishesProgress: with no step hook and no chunk boundary,
// the pipeline's flushes alone keep the run's progress record within
// one event batch of the machine.
func TestFlushPublishesProgress(t *testing.T) {
	st := newRunState("flush")
	m, p := newMachine(context.Background(), loopProgram(t), nil, "flush", Config{}, st)
	defer p.stopHelper()
	if m.Hook != nil {
		t.Fatal("a plain run installed a step hook")
	}
	const n = 10_000
	if _, err := m.Run(n); err != nil {
		t.Fatal(err)
	}
	if got := st.retired.Load(); got < n-batchSize || got > m.Count {
		t.Errorf("published retire count %d, want in [%d, %d]", got, n-batchSize, m.Count)
	}
	if st.pc.Load() == 0 {
		t.Error("no PC published")
	}
}

// TestWatchdogKeepsTranslation: arming the watchdog installs no step
// hook, so the run stays on the block-translated path; only a fault
// plan brings in the hooked interpreter.
func TestWatchdogKeepsTranslation(t *testing.T) {
	cfg := Config{WatchdogInterval: time.Second}
	m, p := newMachine(context.Background(), loopProgram(t), nil, "wd", cfg, newRunState("wd"))
	defer p.stopHelper()
	if m.Hook != nil {
		t.Error("watchdog-armed run installed a step hook")
	}
}

// TestPipelineDeclinesCallsWithoutCallAnalyses: only the local and
// function analyses read call and return events, so a pipeline with
// neither (a sweep cell's) declines them and carries no call buffers.
func TestPipelineDeclinesCallsWithoutCallAnalyses(t *testing.T) {
	im := loopProgram(t)
	for _, cfg := range []Config{{}, {DisableLocal: true}, {DisableFunc: true}, {DisableLocal: true, DisableFunc: true}} {
		p := NewPipeline(im, cfg)
		want := !cfg.DisableLocal || !cfg.DisableFunc
		if p.WantsCalls() != want || (p.b.calls != nil) != want {
			t.Errorf("%+v: WantsCalls=%v, call buffer allocated=%v; want %v", cfg, p.WantsCalls(), p.b.calls != nil, want)
		}
	}
}
