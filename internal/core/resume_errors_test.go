package core

import (
	"encoding/json"
	"testing"

	"crisp/internal/config"
	"crisp/internal/render"
	"crisp/internal/robust"
	"crisp/internal/snapshot"
)

// wantSnapshotError asserts err is a KindSnapshot SimError.
func wantSnapshotError(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: resumed successfully, want a snapshot error", what)
	}
	se, ok := robust.AsSimError(err)
	if !ok || se.Kind != robust.KindSnapshot {
		t.Fatalf("%s: err = %v (%T), want KindSnapshot SimError", what, err, err)
	}
}

// completeSpec is a resumable spec naming real workloads; tests corrupt
// one field at a time.
func completeSpec() snapshot.Spec {
	opts, _ := json.Marshal(render.DefaultOptions())
	return snapshot.Spec{
		GPU:           config.JetsonOrin(),
		Scene:         "SPL",
		Compute:       "VIO",
		Policy:        string(PolicyEven),
		RenderOptions: opts,
		Complete:      true,
	}
}

// TestJobFromSpecRejectsUnknownNames: a snapshot whose spec names a scene,
// compute workload, or policy this build does not know (e.g. written by a
// newer simulator) must fail resume with a typed snapshot error — never a
// panic, never a silent misconfiguration.
func TestJobFromSpecRejectsUnknownNames(t *testing.T) {
	if j, err := jobFromSpec(completeSpec(), MixEnv{}); err != nil || j == nil {
		t.Fatalf("baseline spec did not build: %v", err)
	}

	t.Run("unknown-scene", func(t *testing.T) {
		spec := completeSpec()
		spec.Scene = "NO_SUCH_SCENE"
		_, err := jobFromSpec(spec, MixEnv{})
		wantSnapshotError(t, resumeErr(err), "unknown scene")
	})
	t.Run("unknown-compute", func(t *testing.T) {
		spec := completeSpec()
		spec.Compute = "NO_SUCH_KERNEL"
		_, err := jobFromSpec(spec, MixEnv{})
		wantSnapshotError(t, resumeErr(err), "unknown compute workload")
	})
	t.Run("unknown-policy", func(t *testing.T) {
		spec := completeSpec()
		spec.Policy = "NO_SUCH_POLICY"
		_, err := jobFromSpec(spec, MixEnv{})
		wantSnapshotError(t, resumeErr(err), "unknown policy")
	})
	t.Run("unreadable-render-options", func(t *testing.T) {
		spec := completeSpec()
		spec.RenderOptions = []byte("{not json")
		_, err := jobFromSpec(spec, MixEnv{})
		wantSnapshotError(t, resumeErr(err), "unreadable render options")
	})
}

// TestKnownPolicy pins the validation helper's contract: every registered
// policy passes, the empty kind passes (callers normalize it to serial),
// anything else fails.
func TestKnownPolicy(t *testing.T) {
	for _, p := range PolicyKinds() {
		if !KnownPolicy(p) {
			t.Errorf("KnownPolicy(%q) = false for a registered policy", p)
		}
	}
	if !KnownPolicy("") {
		t.Error(`KnownPolicy("") = false, want true (empty means serial)`)
	}
	for _, p := range []PolicyKind{"serail", "even", "Serial", "mps"} {
		if KnownPolicy(p) {
			t.Errorf("KnownPolicy(%q) = true, want false", p)
		}
	}
}
