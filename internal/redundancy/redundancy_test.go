package redundancy

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"aft/internal/voting"
	"aft/internal/xrand"
)

func policyForTest() Policy {
	return Policy{Min: 3, Max: 9, CriticalDTOF: 1, Step: 2, LowerAfter: 10}
}

func TestPolicyValidation(t *testing.T) {
	bad := []Policy{
		{Min: 0, Max: 9, Step: 2, LowerAfter: 10},
		{Min: 4, Max: 9, Step: 2, LowerAfter: 10},
		{Min: 3, Max: 2, Step: 2, LowerAfter: 10},
		{Min: 3, Max: 8, Step: 2, LowerAfter: 10},
		{Min: 3, Max: 9, Step: 1, LowerAfter: 10},
		{Min: 3, Max: 9, Step: 0, LowerAfter: 10},
		{Min: 3, Max: 9, Step: 2, LowerAfter: 0},
		{Min: 3, Max: 9, CriticalDTOF: -1, Step: 2, LowerAfter: 10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
	if err := DefaultPolicy().Validate(); err != nil {
		t.Fatalf("default policy rejected: %v", err)
	}
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(policyForTest(), 4); err == nil {
		t.Fatal("even initial accepted")
	}
	if _, err := NewController(policyForTest(), 1); err == nil {
		t.Fatal("initial below Min accepted")
	}
	if _, err := NewController(policyForTest(), 11); err == nil {
		t.Fatal("initial above Max accepted")
	}
}

func outcome(n, dissent int) voting.Outcome {
	o := voting.Outcome{N: n, HasMajority: dissent <= n/2, Dissent: dissent}
	if o.HasMajority {
		o.DTOF = voting.DTOF(n, dissent)
		o.Correct = true
	}
	return o
}

func TestRaiseOnCriticalDTOF(t *testing.T) {
	c, err := NewController(policyForTest(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// n=3, one dissenter: dtof = 2-1 = 1 <= critical -> raise to 5.
	dir, changed := c.Observe(outcome(3, 1))
	if !changed || dir != Raise {
		t.Fatalf("Observe = %v, %v; want Raise", dir, changed)
	}
	if c.N() != 5 {
		t.Fatalf("N = %d, want 5", c.N())
	}
}

func TestRaiseSaturatesAtMax(t *testing.T) {
	c, err := NewController(policyForTest(), 9)
	if err != nil {
		t.Fatal(err)
	}
	dir, changed := c.Observe(outcome(9, 4)) // dtof 1: critical
	if changed || dir != 0 {
		t.Fatalf("raise beyond Max: %v, %v", dir, changed)
	}
	if c.N() != 9 {
		t.Fatalf("N = %d, want 9", c.N())
	}
}

func TestLowerAfterQuietStreak(t *testing.T) {
	c, err := NewController(policyForTest(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, changed := c.Observe(outcome(5, 0)); changed {
			t.Fatalf("lowered after only %d quiet runs", i+1)
		}
	}
	dir, changed := c.Observe(outcome(5, 0))
	if !changed || dir != Lower {
		t.Fatalf("10th quiet run: %v, %v; want Lower", dir, changed)
	}
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3", c.N())
	}
	if c.QuietRuns() != 0 {
		t.Fatal("quiet streak not reset after lowering")
	}
}

func TestLowerSaturatesAtMin(t *testing.T) {
	c, err := NewController(policyForTest(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if dir, changed := c.Observe(outcome(3, 0)); changed {
			t.Fatalf("lowered below Min: %v", dir)
		}
	}
	if c.N() != 3 {
		t.Fatalf("N = %d, want 3", c.N())
	}
}

func TestModerateDissentResetsQuietStreak(t *testing.T) {
	p := policyForTest()
	p.CriticalDTOF = 0 // only a lost majority is critical
	c, err := NewController(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		c.Observe(outcome(7, 0))
	}
	// One dissenter: dtof 3 > 0, not critical, but not consensus either.
	if _, changed := c.Observe(outcome(7, 1)); changed {
		t.Fatal("moderate dissent caused a resize")
	}
	if c.QuietRuns() != 0 {
		t.Fatal("dissent did not reset the quiet streak")
	}
}

func TestStatsCounting(t *testing.T) {
	c, err := NewController(policyForTest(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(outcome(3, 1)) // raise
	for i := 0; i < 10; i++ {
		c.Observe(outcome(5, 0)) // 10th lowers
	}
	raises, lowers := c.Stats()
	if raises != 1 || lowers != 1 {
		t.Fatalf("stats = %d raises, %d lowers", raises, lowers)
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	key := []byte("test-key")
	req := SignResize(key, 5, Raise, 42)
	if err := VerifyResize(key, req); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	key := []byte("test-key")
	req := SignResize(key, 5, Raise, 42)
	tampered := req
	tampered.NewN = 9
	if err := VerifyResize(key, tampered); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered NewN: %v", err)
	}
	tampered = req
	tampered.Direction = Lower
	if err := VerifyResize(key, tampered); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered direction: %v", err)
	}
	tampered = req
	tampered.Nonce++
	if err := VerifyResize(key, tampered); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered nonce: %v", err)
	}
	if err := VerifyResize([]byte("wrong-key"), req); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("wrong key: %v", err)
	}
}

// TestResizeSignerReuse drives one signer through a run of signs and
// verifies, a rejected forgery among them: every tag must equal the
// one-shot SignResize tag, and every genuine request must verify on the
// reused signer and on VerifyResize.
func TestResizeSignerReuse(t *testing.T) {
	key := []byte("test-key")
	s := NewResizeSigner(key)
	for nonce := uint64(1); nonce <= 20; nonce++ {
		newN, dir := 3+2*int(nonce%4), Direction(1+nonce%2)
		req := s.Sign(newN, dir, nonce)
		if want := SignResize(key, newN, dir, nonce); !bytes.Equal(req.MAC, want.MAC) {
			t.Fatalf("nonce %d: reused signer's tag %x, one-shot %x", nonce, req.MAC, want.MAC)
		}
		if err := s.Verify(req); err != nil {
			t.Fatalf("nonce %d: reused signer rejects its own request: %v", nonce, err)
		}
		if err := VerifyResize(key, req); err != nil {
			t.Fatalf("nonce %d: VerifyResize rejects the reused signer's request: %v", nonce, err)
		}
		forged := req
		forged.Nonce++
		if err := s.Verify(forged); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("nonce %d: forged request: %v", nonce, err)
		}
	}
}

// Property: signing and verifying with the same key always round-trips;
// flipping any MAC byte always fails.
func TestMACProperty(t *testing.T) {
	f := func(keySeed, nonce uint64, n uint8, flip uint8) bool {
		key := make([]byte, 16)
		fillKey(key, keySeed)
		newN := int(n)%20 + 1
		req := SignResize(key, newN, Raise, nonce)
		if VerifyResize(key, req) != nil {
			return false
		}
		bad := req
		bad.MAC = append([]byte(nil), req.MAC...)
		bad.MAC[int(flip)%len(bad.MAC)] ^= 0x01
		return VerifyResize(key, bad) != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fillKey(dst []byte, seed uint64) {
	for i := range dst {
		dst[i] = byte(seed >> (8 * (i % 8)))
	}
}

func TestDirectionString(t *testing.T) {
	if Raise.String() != "raise" || Lower.String() != "lower" {
		t.Fatal("direction names wrong")
	}
	if Direction(5).String() != "Direction(5)" {
		t.Fatal("unknown direction name wrong")
	}
}

func TestNewSwitchboardValidation(t *testing.T) {
	farm, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSwitchboard(nil, policyForTest(), []byte("k")); err == nil {
		t.Fatal("nil farm accepted")
	}
	if _, err := NewSwitchboard(farm, policyForTest(), nil); err == nil {
		t.Fatal("empty key accepted")
	}
	bad := policyForTest()
	bad.Step = 3
	if _, err := NewSwitchboard(farm, bad, []byte("k")); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestFig6Staircase reproduces the shape of the paper's Fig. 6: faults
// are injected, dtof drops, redundancy rises; when the disturbance ends
// and dtof stays high, redundancy decays back.
func TestFig6Staircase(t *testing.T) {
	farm, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSwitchboard(farm, policyForTest(), []byte("fig6"))
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)

	// Phase 1: quiet. No resize.
	for i := 0; i < 9; i++ {
		if _, resized := sb.Step(1, nil, nil); resized {
			t.Fatal("resize during initial quiet phase")
		}
	}
	// Phase 2: disturbance hits one replica per round. With n=3 one
	// dissenter gives dtof 1: critical, raise.
	var rose bool
	for i := 0; i < 5; i++ {
		_, resized := sb.Step(1, func(j int) bool { return j == 0 }, rng)
		if resized {
			rose = true
		}
	}
	if !rose {
		t.Fatal("disturbance did not raise redundancy")
	}
	if farm.N() <= 3 {
		t.Fatalf("farm N = %d after disturbance, want > 3", farm.N())
	}
	nAfterStorm := farm.N()
	// Phase 3: quiet again long enough to trigger lowerings back to Min.
	for i := 0; i < 100; i++ {
		sb.Step(1, nil, nil)
	}
	if farm.N() != 3 {
		t.Fatalf("farm N = %d after calm, want 3 (was %d)", farm.N(), nAfterStorm)
	}
	if sb.Resizes() < 2 {
		t.Fatalf("resizes = %d, want >= 2 (up and down)", sb.Resizes())
	}
	// Throughout, with one corrupted replica max, no round may fail.
	_, failures := farm.Stats()
	if failures != 0 {
		t.Fatalf("failures = %d, want 0", failures)
	}
}

func TestSwitchboardControllerAndFarmAccessors(t *testing.T) {
	farm, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSwitchboard(farm, policyForTest(), []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	if sb.Farm() != farm {
		t.Fatal("Farm() accessor wrong")
	}
	if sb.Controller().N() != 3 {
		t.Fatal("Controller() accessor wrong")
	}
}
