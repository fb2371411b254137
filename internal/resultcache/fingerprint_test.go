package resultcache

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

func TestFingerprintShapeAndStability(t *testing.T) {
	cfg := core.Config{SkipInstructions: 100, MeasureInstructions: 500}
	k1 := Fingerprint("goban", "int main() { return 0; }", cfg)
	k2 := Fingerprint("goban", "int main() { return 0; }", cfg)
	if k1 != k2 {
		t.Fatalf("fingerprint not deterministic: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("fingerprint should be hex sha256 (64 chars), got %d: %s", len(k1), k1)
	}
	for _, c := range k1 {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			t.Fatalf("fingerprint has non-hex char %q: %s", c, k1)
		}
	}
}

// TestFingerprintSensitivity pins that every input that can change the
// measured report changes the key.
func TestFingerprintSensitivity(t *testing.T) {
	base := core.Config{SkipInstructions: 100, MeasureInstructions: 500}
	baseKey := Fingerprint("goban", "src", base)
	mutations := map[string]func() string{
		"workload": func() string { return Fingerprint("lzw", "src", base) },
		"source":   func() string { return Fingerprint("goban", "src2", base) },
		"skip": func() string {
			c := base
			c.SkipInstructions++
			return Fingerprint("goban", "src", c)
		},
		"measure": func() string {
			c := base
			c.MeasureInstructions++
			return Fingerprint("goban", "src", c)
		},
		"instances": func() string {
			c := base
			c.MaxInstances = 2001
			return Fingerprint("goban", "src", c)
		},
		"reuse-entries": func() string {
			c := base
			c.ReuseEntries = 4096
			return Fingerprint("goban", "src", c)
		},
		"reuse-assoc": func() string {
			c := base
			c.ReuseAssoc = 8
			return Fingerprint("goban", "src", c)
		},
		"vpred-entries": func() string {
			c := base
			c.VPredEntries = 16384
			return Fingerprint("goban", "src", c)
		},
		"input-variant": func() string {
			c := base
			c.InputVariant = 2
			return Fingerprint("goban", "src", c)
		},
		"disable-taint": func() string {
			c := base
			c.DisableTaint = true
			return Fingerprint("goban", "src", c)
		},
		"disable-local": func() string {
			c := base
			c.DisableLocal = true
			return Fingerprint("goban", "src", c)
		},
		"disable-func": func() string {
			c := base
			c.DisableFunc = true
			return Fingerprint("goban", "src", c)
		},
		"disable-reuse": func() string {
			c := base
			c.DisableReuse = true
			return Fingerprint("goban", "src", c)
		},
		"disable-vpred": func() string {
			c := base
			c.DisableVPred = true
			return Fingerprint("goban", "src", c)
		},
		"disable-vprof": func() string {
			c := base
			c.DisableVProf = true
			return Fingerprint("goban", "src", c)
		},
	}
	seen := map[string]string{baseKey: "base"}
	for name, mutate := range mutations {
		k := mutate()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestFingerprintNormalization pins that zero-value defaults and the
// explicit sizes they select share a key, and that execution-shaping
// fields are excluded.
func TestFingerprintNormalization(t *testing.T) {
	zero := core.Config{SkipInstructions: 100, MeasureInstructions: 500}
	explicit := zero
	explicit.MaxInstances = 2000
	explicit.ReuseEntries = 8192
	explicit.ReuseAssoc = 4
	explicit.VPredEntries = 8192
	explicit.InputVariant = 1
	if Fingerprint("w", "s", zero) != Fingerprint("w", "s", explicit) {
		t.Error("zero-value defaults should fingerprint like their explicit sizes")
	}

	exec := zero
	exec.Parallel = 7
	exec.Timeout = time.Minute
	exec.WatchdogInterval = time.Second
	exec.Runs = core.NewRunRegistry()
	if Fingerprint("w", "s", zero) != Fingerprint("w", "s", exec) {
		t.Error("execution-only fields must not change the fingerprint")
	}
}

func TestCacheable(t *testing.T) {
	if !Cacheable(core.Config{Timeout: time.Second}) {
		t.Error("plain configs should be cacheable (timeouts only truncate, and truncated reports are not stored)")
	}
	if Cacheable(core.Config{Faults: faultinject.NewPlan()}) {
		t.Error("fault-injected configs must bypass the cache")
	}
}
