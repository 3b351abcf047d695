package faultinject

import (
	"bytes"
	"testing"
	"time"
)

func TestDisabledByDefault(t *testing.T) {
	if Enabled() {
		t.Fatal("injector active with none installed")
	}
	if Fire(WorkerPanic) || Fire(InvariantFlip) {
		t.Fatal("fired with no injector")
	}
	b := []byte{1, 2, 3}
	if Corrupt(CodecCorrupt, b) || !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatal("corrupted with no injector")
	}
}

func TestCounterSchedule(t *testing.T) {
	in := New(1).Set(WorkerPanic, Rule{After: 2, Every: 3, Limit: 2})
	restore := Activate(in)
	defer restore()
	var fired []bool
	for i := 0; i < 12; i++ {
		fired = append(fired, Fire(WorkerPanic))
	}
	// Triggers 1,2 skipped (After); then every 3rd: 3, 6 fire; Limit 2
	// stops 9 and beyond.
	want := []bool{false, false, true, false, false, true, false, false, false, false, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("trigger %d: fired=%v want %v (%v)", i+1, fired[i], want[i], fired)
		}
	}
	if in.Fires(WorkerPanic) != 2 {
		t.Fatalf("fires=%d want 2", in.Fires(WorkerPanic))
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(seed).Set(ScanDelay, Rule{Prob: 0.5})
		restore := Activate(in)
		defer restore()
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, Fire(ScanDelay))
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at trigger %d", i)
		}
	}
	anyFired, anySkipped := false, false
	for _, f := range a {
		anyFired = anyFired || f
		anySkipped = anySkipped || !f
	}
	if !anyFired || !anySkipped {
		t.Fatalf("p=0.5 over 64 draws should mix fires and skips: %v", a)
	}
}

func TestCorruptFlipsOneByte(t *testing.T) {
	restore := Activate(New(3).Set(CodecCorrupt, Rule{Limit: 1}))
	defer restore()
	orig := []byte("0123456789abcdef")
	b := append([]byte(nil), orig...)
	if !Corrupt(CodecCorrupt, b) {
		t.Fatal("expected corruption on first trigger")
	}
	diff := 0
	for i := range b {
		if b[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt changed %d bytes, want 1", diff)
	}
	b2 := append([]byte(nil), orig...)
	if Corrupt(CodecCorrupt, b2) {
		t.Fatal("limit 1 exceeded")
	}
}

func TestSleepHonorsDelay(t *testing.T) {
	restore := Activate(New(1).Set(ScanDelay, Rule{Delay: 10 * time.Millisecond, Limit: 1}))
	defer restore()
	start := time.Now()
	Sleep(ScanDelay)
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("sleep returned after %v, want >= 10ms", d)
	}
	start = time.Now()
	Sleep(ScanDelay) // limit reached: no delay
	if d := time.Since(start); d > 5*time.Millisecond {
		t.Fatalf("limited sleep still slept %v", d)
	}
}

func TestActivateRestoreIsScoped(t *testing.T) {
	in := New(1).Set(WorkerPanic, Rule{})
	restore := Activate(in)
	if !Fire(WorkerPanic) {
		t.Fatal("zero rule should fire every trigger")
	}
	restore()
	if Enabled() || Fire(WorkerPanic) {
		t.Fatal("restore did not deactivate")
	}
}
