package queueing

import (
	"math"
	"testing"
	"time"
)

func TestTrafficIntensity(t *testing.T) {
	if rho := TrafficIntensity(8, 1, 10); rho != 0.8 {
		t.Fatalf("rho = %v, want 0.8", rho)
	}
	if rho := TrafficIntensity(20, 1, 10); rho != 2 {
		t.Fatalf("rho = %v, want 2", rho)
	}
}

func TestTrafficIntensityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero mu")
		}
	}()
	TrafficIntensity(1, 0, 1)
}

func TestErlangCKnownValues(t *testing.T) {
	// M/M/1: P(wait) = rho.
	p, err := ErlangC(0.5, 1)
	if err != nil || math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("M/M/1 ErlangC = %v (%v), want 0.5", p, err)
	}
	// M/M/2 with a=1 (rho=0.5): C = 1/3.
	p, err = ErlangC(1, 2)
	if err != nil || math.Abs(p-1.0/3.0) > 1e-9 {
		t.Fatalf("M/M/2 ErlangC = %v (%v), want 1/3", p, err)
	}
}

func TestErlangCUnstable(t *testing.T) {
	if _, err := ErlangC(2, 2); err != ErrUnstable {
		t.Fatalf("expected ErrUnstable, got %v", err)
	}
}

func TestMMcWait(t *testing.T) {
	// M/M/1 with lambda=1, mu=2: Wq = rho/(mu-lambda) = 0.5/1 = 0.5s.
	w, err := MMcWait(1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Seconds()-0.5) > 1e-9 {
		t.Fatalf("Wq = %v, want 500ms", w)
	}
	if _, err := MMcWait(3, 1, 2); err != ErrUnstable {
		t.Fatal("saturated M/M/c should be unstable")
	}
}

func TestMG1Wait(t *testing.T) {
	// M/D/1 (deterministic service): es2 = es^2.
	// lambda=1, es=0.5 => rho=0.5, Wq = 1*0.25/(2*0.5) = 0.25s.
	w, err := MG1Wait(1, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Seconds()-0.25) > 1e-9 {
		t.Fatalf("Wq = %v, want 250ms", w)
	}
	// M/M/1 via P-K: es2 = 2*es^2 doubles the deterministic wait.
	w2, err := MG1Wait(1, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w2.Seconds()-0.5) > 1e-9 {
		t.Fatalf("M/M/1 Wq = %v, want 500ms", w2)
	}
	if _, err := MG1Wait(3, 0.5, 0.25); err != ErrUnstable {
		t.Fatal("rho>1 should be unstable")
	}
}

func TestOfferedLoadAndInverse(t *testing.T) {
	// meanService 800ms, 8 cores, want load 1.0 -> IAT 100ms.
	iat := IATForLoad(800*time.Millisecond, 8, 1.0)
	if iat != 100*time.Millisecond {
		t.Fatalf("IAT = %v, want 100ms", iat)
	}
	if l := OfferedLoad(800*time.Millisecond, iat, 8); math.Abs(l-1.0) > 1e-9 {
		t.Fatalf("round-trip load = %v, want 1.0", l)
	}
	// Lower load stretches the IAT proportionally.
	if iat50 := IATForLoad(800*time.Millisecond, 8, 0.5); iat50 != 200*time.Millisecond {
		t.Fatalf("IAT at 50%% = %v, want 200ms", iat50)
	}
	if !math.IsInf(OfferedLoad(time.Second, 0, 1), 1) {
		t.Fatal("zero IAT should be infinite load")
	}
}
