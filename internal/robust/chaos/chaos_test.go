package chaos

import (
	"fmt"
	"strings"
	"testing"

	"crisp/internal/config"
	"crisp/internal/robust"
	"crisp/internal/snapshot"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=7,kill@9000,corrupt=truncate,kills=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Seed: 7, KillCycle: 9000, Kills: 2, CorruptLatest: "truncate"}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Fatal("spec should be enabled")
	}

	// kills defaults to 1 when a kill cycle is set.
	spec, err = ParseSpec("kill@500")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kills != 1 {
		t.Fatalf("default kills = %d, want 1", spec.Kills)
	}

	// Round trip through String.
	again, err := ParseSpec(spec.String())
	if err != nil || again != spec {
		t.Fatalf("round trip: %+v vs %+v (%v)", again, spec, err)
	}

	if s, err := ParseSpec(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	// delay=, hbdrop= and hbdelay= name no fault: refused, not ignored.
	for _, bad := range []string{"kill@x", "kill@-1", "corrupt=explode", "frobnicate", "kills=-2",
		"delay=20ms", "hbdrop=1", "hbdelay=5ms"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) should fail", bad)
		}
	}
}

func TestControllerBudgetsPerDigest(t *testing.T) {
	ctrl := NewController(Spec{KillCycle: 9000, Kills: 2, CorruptLatest: "flip"})
	if ctrl == nil {
		t.Fatal("enabled spec should build a controller")
	}

	// Corruption never fires before a kill has fired for the digest.
	if _, ok := ctrl.TakeCorrupt("aaaa"); ok {
		t.Fatal("TakeCorrupt before any kill should not fire")
	}

	// Kill budget is per digest.
	for i := 0; i < 2; i++ {
		cycle, ok := ctrl.TakeKill("aaaa")
		if !ok || cycle != 9000 {
			t.Fatalf("kill %d: cycle=%d ok=%v", i, cycle, ok)
		}
	}
	if _, ok := ctrl.TakeKill("aaaa"); ok {
		t.Fatal("third kill for one digest should not fire (kills=2)")
	}
	if _, ok := ctrl.TakeKill("bbbb"); !ok {
		t.Fatal("another digest has its own kill budget")
	}

	// Corruption fires exactly once per digest, only after a kill.
	if mode, ok := ctrl.TakeCorrupt("aaaa"); !ok || mode != "flip" {
		t.Fatalf("TakeCorrupt after kill: mode=%q ok=%v", mode, ok)
	}
	if _, ok := ctrl.TakeCorrupt("aaaa"); ok {
		t.Fatal("second corruption for one digest should not fire")
	}

	// A reserved kill counts only once it is carried out: here two of the
	// three are, the third attempt ending before its cycle.
	if kills, _ := ctrl.Stats(); kills != 0 {
		t.Fatalf("stats = %d kills before any was carried out; want 0", kills)
	}
	ctrl.Killed()
	ctrl.Killed()
	kills, corruptions := ctrl.Stats()
	if kills != 2 || corruptions != 1 {
		t.Fatalf("stats = %d kills, %d corruptions; want 2, 1", kills, corruptions)
	}
}

func TestNilControllerIsInert(t *testing.T) {
	var ctrl *Controller
	if _, ok := ctrl.TakeKill("x"); ok {
		t.Fatal("nil TakeKill fired")
	}
	if _, ok := ctrl.TakeCorrupt("x"); ok {
		t.Fatal("nil TakeCorrupt fired")
	}
	ctrl.Killed()
	if k, c := ctrl.Stats(); k != 0 || c != 0 {
		t.Fatal("nil stats nonzero")
	}
	if NewController(Spec{}) != nil {
		t.Fatal("empty spec should build a nil controller")
	}
}

func TestInjectedIsRetryableEvenWrapped(t *testing.T) {
	inj := Injected(9000)
	if !robust.RetryableError(inj) {
		t.Fatal("injected fault must be retryable")
	}
	// The facade's panic firewall wraps the injected fault in KindPanic;
	// classification must still find the injected cause.
	wrapped := &robust.SimError{Kind: robust.KindPanic, Msg: "recovered panic", Err: inj}
	if got := robust.DeepestKind(wrapped); got != robust.KindInjected {
		t.Fatalf("DeepestKind = %v, want injected", got)
	}
	if !robust.RetryableError(fmt.Errorf("run: %w", wrapped)) {
		t.Fatal("wrapped injected fault must stay retryable")
	}
}

// ckptDir writes two real checkpoints (cycles 100 and 200) and returns the
// directory — the fixture every corruption test damages.
func ckptDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st := &snapshot.Store{Dir: dir}
	for _, c := range []int64{100, 200} {
		env := &snapshot.Envelope{
			Version: snapshot.FormatVersion,
			Spec:    snapshot.Spec{GPU: config.JetsonOrin(), Scene: "SPL", Policy: "EVEN"},
		}
		env.State.Arch.Cycle = c
		if _, err := st.Save(env); err != nil {
			t.Fatalf("save %d: %v", c, err)
		}
	}
	return dir
}

func TestCorruptForcesFallback(t *testing.T) {
	for _, mode := range []string{"truncate", "flip"} {
		t.Run(mode, func(t *testing.T) {
			dir := ckptDir(t)
			damaged, err := Corrupt(mode, 7, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(damaged, "ckpt-") {
				t.Fatalf("damaged %s, want the newest periodic checkpoint", damaged)
			}
			if _, err := snapshot.PeekHeader(damaged); err != nil {
				t.Fatalf("%s reached the header line, want body damage only: %v", mode, err)
			}
			if _, err := snapshot.LoadFile(damaged); err == nil {
				t.Fatalf("%s-damaged checkpoint still loads", mode)
			}
			env, corrupt, err := snapshot.LoadNewest("", dir)
			if err != nil {
				t.Fatalf("LoadNewest after %s: %v", mode, err)
			}
			if env.State.Arch.Cycle != 100 {
				t.Fatalf("fell back to cycle %d, want 100", env.State.Arch.Cycle)
			}
			if len(corrupt) != 1 {
				t.Fatalf("corrupt list = %v, want the one damaged file", corrupt)
			}
		})
	}
}

func TestCorruptEmptyDir(t *testing.T) {
	if _, err := Corrupt("truncate", 0, t.TempDir()); err == nil {
		t.Fatal("Corrupt on empty dir should fail")
	}
}
