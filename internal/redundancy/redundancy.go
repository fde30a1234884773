// Package redundancy implements the paper's "Reflective Switchboards"
// (§3.3): an autonomic controller that revises the dimensioning of a
// replication-and-voting scheme at run time, turning a fixed-redundancy
// Boulding "Thermostat" into a self-maintaining "Cell".
//
// The policy is the one the paper states:
//
//   - "When dtof is critically low, the Reflective Switchboards request
//     the replication system to increase the number of redundant
//     replicas."
//   - "When dtof is high for a certain amount of consecutive runs — 1000
//     runs in our experiments — a request to lower the number of
//     replicas is issued."
//
// Revisions travel as authenticated resize messages ("secure messages
// that ask to raise or lower the current number of replicas"),
// implemented with HMAC-SHA256.
package redundancy

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"aft/internal/voting"
	"aft/internal/xrand"
)

// Policy parameterizes the controller.
type Policy struct {
	// Min and Max bound the replica count; both must be odd.
	Min, Max int
	// CriticalDTOF triggers a raise when a round's dtof is at or below
	// it.
	CriticalDTOF int
	// Step is how many replicas a raise adds or a lowering removes;
	// must be even to preserve oddness.
	Step int
	// LowerAfter is the number of consecutive full-consensus rounds
	// before a lowering is issued (1000 in the paper's experiments).
	LowerAfter int
}

// DefaultPolicy mirrors the paper's experiment: redundancy 3–9,
// raise on dtof ≤ 1, lower after 1000 quiet runs.
func DefaultPolicy() Policy {
	return Policy{Min: 3, Max: 9, CriticalDTOF: 1, Step: 2, LowerAfter: 1000}
}

// Validate checks the policy.
func (p Policy) Validate() error {
	if p.Min <= 0 || p.Min%2 == 0 {
		return fmt.Errorf("redundancy: Min %d must be positive and odd", p.Min)
	}
	if p.Max < p.Min || p.Max%2 == 0 {
		return fmt.Errorf("redundancy: Max %d must be odd and >= Min %d", p.Max, p.Min)
	}
	if p.CriticalDTOF < 0 {
		return fmt.Errorf("redundancy: CriticalDTOF %d must be non-negative", p.CriticalDTOF)
	}
	if p.Step <= 0 || p.Step%2 != 0 {
		return fmt.Errorf("redundancy: Step %d must be positive and even", p.Step)
	}
	if p.LowerAfter <= 0 {
		return fmt.Errorf("redundancy: LowerAfter %d must be positive", p.LowerAfter)
	}
	return nil
}

// Direction of a resize request.
type Direction int

// Directions.
const (
	Raise Direction = iota + 1
	Lower
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case Raise:
		return "raise"
	case Lower:
		return "lower"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Controller implements the dtof policy. It is deliberately free of any
// knowledge of the voting organ: it deduces and publishes resize
// decisions, which the Switchboard transports as signed messages.
type Controller struct {
	policy Policy
	n      int
	quiet  int

	raises, lowers int64
}

// NewController builds a controller starting at initial replicas.
func NewController(policy Policy, initial int) (*Controller, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if initial < policy.Min || initial > policy.Max || initial%2 == 0 {
		return nil, fmt.Errorf("redundancy: initial %d out of [%d,%d] or even",
			initial, policy.Min, policy.Max)
	}
	return &Controller{policy: policy, n: initial}, nil
}

// N reports the controller's current target replica count.
func (c *Controller) N() int { return c.n }

// QuietRuns reports the current streak of consecutive full-consensus
// rounds.
func (c *Controller) QuietRuns() int { return c.quiet }

// Stats reports the cumulative number of raise and lower decisions.
func (c *Controller) Stats() (raises, lowers int64) { return c.raises, c.lowers }

// adopt records an applied dimensioning. For self-issued revisions this
// is a no-op (Observe already moved the target and reset the quiet
// streak); for externally applied resize messages it keeps the
// controller's state in sync with the farm, so its next decision starts
// from the dimensioning actually in force.
func (c *Controller) adopt(n int) {
	if n == c.n {
		return
	}
	c.n = n
	c.quiet = 0
}

// Observe feeds one voting outcome. It returns the direction of a
// resize request when one is issued, or 0 when the dimensioning stands.
func (c *Controller) Observe(o voting.Outcome) (Direction, bool) {
	n, quiet, dir := c.policy.Decide(c.n, c.quiet, o.DTOF, o.Dissent)
	c.n, c.quiet = n, quiet
	switch dir {
	case Raise:
		c.raises++
	case Lower:
		c.lowers++
	}
	return dir, dir != 0
}

// Decide is the dtof policy as a pure function: given the current
// dimensioning n, the quiet streak, and a round's dtof and dissent, it
// returns the next dimensioning, the next streak, and the direction of
// the resize request issued (0 when the dimensioning stands). It is the
// single decision kernel shared by Controller.Observe and the batch
// campaign engine's lane loop, which carries n and quiet in flat
// per-lane slices and cannot afford a controller object per lane.
func (p Policy) Decide(n, quiet, dtof, dissent int) (newN, newQuiet int, dir Direction) {
	if dtof <= p.CriticalDTOF {
		// Critically close to failure: ask for more redundancy.
		if n < p.Max {
			n += p.Step
			if n > p.Max {
				n = p.Max
			}
			return n, 0, Raise
		}
		return n, 0, 0
	}
	if dissent == 0 {
		// Full consensus: the paper's "dtof is high".
		quiet++
		if quiet >= p.LowerAfter {
			quiet = 0
			if n > p.Min {
				n -= p.Step
				if n < p.Min {
					n = p.Min
				}
				return n, 0, Lower
			}
		}
		return n, quiet, 0
	}
	// Some dissent, but not critical: reset the quiet streak.
	return n, 0, 0
}

// --- Secure resize messages -------------------------------------------

// ResizeRequest is the authenticated message carrying a dimensioning
// revision.
type ResizeRequest struct {
	// NewN is the requested replica count.
	NewN int
	// Direction documents why the revision was issued.
	Direction Direction
	// Nonce makes each message unique.
	Nonce uint64
	// MAC is the HMAC-SHA256 tag over (NewN, Direction, Nonce).
	MAC []byte
}

// ErrBadMAC reports a resize request failing authentication.
var ErrBadMAC = errors.New("redundancy: resize request failed authentication")

// ErrReplayedNonce reports a resize request whose nonce does not advance
// past the last accepted one: a replayed or stale message. Without this
// check any previously signed request re-verifies forever, so an
// attacker who captured one legitimate "lower" message could replay it
// to pin the organ at minimal redundancy.
var ErrReplayedNonce = errors.New("redundancy: replayed or stale resize nonce")

// ResizeSigner signs and verifies resize requests under one key. It
// keys HMAC-SHA256 once; every message resets the keyed state instead
// of keying afresh, and the payload and tags live in the signer, so a
// long run of resizes neither re-keys nor allocates. A ResizeSigner is
// not safe for concurrent use.
type ResizeSigner struct {
	mac hash.Hash
	// used is set once mac has taken a message. A fresh mac is already
	// keyed and empty, so a one-shot signer (SignResize, VerifyResize)
	// skips Reset, whose first call also saves the keyed state.
	used bool
	// payload is the MAC input: NewN, Direction and Nonce, big-endian.
	// It lives here because a stack buffer escapes through Write.
	payload [24]byte
	tag     [sha256.Size]byte // Sign's output
	check   [sha256.Size]byte // Verify's recomputed tag
}

// NewResizeSigner keys a signer with key.
func NewResizeSigner(key []byte) *ResizeSigner {
	return &ResizeSigner{mac: hmac.New(sha256.New, key)}
}

// sum writes the tag over (newN, dir, nonce) into dst's storage.
func (s *ResizeSigner) sum(dst []byte, newN int, dir Direction, nonce uint64) []byte {
	binary.BigEndian.PutUint64(s.payload[0:8], uint64(int64(newN)))
	binary.BigEndian.PutUint64(s.payload[8:16], uint64(int64(dir)))
	binary.BigEndian.PutUint64(s.payload[16:24], nonce)
	if s.used {
		s.mac.Reset()
	}
	s.used = true
	s.mac.Write(s.payload[:])
	return s.mac.Sum(dst[:0])
}

// Sign builds an authenticated resize request. Its MAC is the signer's
// own buffer, valid until the next Sign.
func (s *ResizeSigner) Sign(newN int, dir Direction, nonce uint64) ResizeRequest {
	return ResizeRequest{NewN: newN, Direction: dir, Nonce: nonce, MAC: s.sum(s.tag[:], newN, dir, nonce)}
}

// Verify authenticates a resize request.
func (s *ResizeSigner) Verify(r ResizeRequest) error {
	if !hmac.Equal(s.sum(s.check[:], r.NewN, r.Direction, r.Nonce), r.MAC) {
		return ErrBadMAC
	}
	return nil
}

// SignResize builds an authenticated resize request.
func SignResize(key []byte, newN int, dir Direction, nonce uint64) ResizeRequest {
	return NewResizeSigner(key).Sign(newN, dir, nonce)
}

// VerifyResize authenticates a resize request.
func VerifyResize(key []byte, r ResizeRequest) error {
	return NewResizeSigner(key).Verify(r)
}

// --- Switchboard --------------------------------------------------------

// Switchboard couples a voting farm with a controller, carrying resize
// decisions as authenticated messages — the complete §3.3 loop.
type Switchboard struct {
	farm *voting.Farm
	ctrl *Controller
	key  []byte

	// lastNonce is the highest nonce accepted on receipt; requests whose
	// nonce does not strictly advance past it are rejected as replays.
	// Self-issued revisions sign with lastNonce+1, so one nonce space
	// covers both self-delivered and externally applied messages.
	lastNonce uint64
	resizes   int64
	rejected  int64
}

// NewSwitchboard wires a farm to a fresh controller with the given
// policy. The farm's current size becomes the controller's initial
// value. key authenticates resize messages.
func NewSwitchboard(farm *voting.Farm, policy Policy, key []byte) (*Switchboard, error) {
	if farm == nil {
		return nil, fmt.Errorf("redundancy: nil farm")
	}
	if len(key) == 0 {
		return nil, fmt.Errorf("redundancy: empty key")
	}
	ctrl, err := NewController(policy, farm.N())
	if err != nil {
		return nil, err
	}
	k := make([]byte, len(key))
	copy(k, key)
	return &Switchboard{farm: farm, ctrl: ctrl, key: k}, nil
}

// Controller exposes the wrapped controller (read-only use).
func (s *Switchboard) Controller() *Controller { return s.ctrl }

// Farm exposes the wrapped farm.
func (s *Switchboard) Farm() *voting.Farm { return s.farm }

// Resizes reports how many resize messages were applied.
func (s *Switchboard) Resizes() int64 { return s.resizes }

// Rejected reports how many resize messages were rejected (failed
// authentication, replayed/stale nonce, or invalid replica count).
func (s *Switchboard) Rejected() int64 { return s.rejected }

// LastNonce reports the highest nonce accepted so far.
func (s *Switchboard) LastNonce() uint64 { return s.lastNonce }

// Apply delivers one resize request to the switchboard: it verifies the
// MAC, rejects non-increasing nonces with ErrReplayedNonce, rejects
// dimensionings outside the policy band, resizes the farm, and keeps the
// controller's notion of the dimensioning in sync. Every rejection,
// whatever the cause, is counted.
func (s *Switchboard) Apply(req ResizeRequest) error {
	if err := VerifyResize(s.key, req); err != nil {
		s.rejected++
		return err
	}
	if req.Nonce <= s.lastNonce {
		s.rejected++
		return fmt.Errorf("%w: nonce %d, last accepted %d",
			ErrReplayedNonce, req.Nonce, s.lastNonce)
	}
	if req.Nonce == ^uint64(0) {
		// The maximum nonce is reserved: accepting it would leave no
		// successor for self-issued revisions (lastNonce+1 would wrap to
		// 0) and wedge the switchboard permanently.
		s.rejected++
		return fmt.Errorf("%w: nonce %d is reserved", ErrReplayedNonce, req.Nonce)
	}
	if p := s.ctrl.policy; req.NewN < p.Min || req.NewN > p.Max {
		s.rejected++
		return fmt.Errorf("redundancy: resize to %d outside policy band [%d,%d]",
			req.NewN, p.Min, p.Max)
	}
	if err := s.farm.SetReplicas(req.NewN); err != nil {
		s.rejected++
		return err
	}
	s.ctrl.adopt(req.NewN)
	s.lastNonce = req.Nonce
	s.resizes++
	return nil
}

// deliver signs and applies the controller's current target — the
// revision travels as a signed message, verified on receipt with replay
// protection: the paper's "secure messages".
func (s *Switchboard) deliver(dir Direction) bool {
	req := SignResize(s.key, s.ctrl.N(), dir, s.lastNonce+1)
	return s.Apply(req) == nil
}

// Step runs one voting round and applies any dimensioning revision the
// controller deduces from it. It returns the round outcome and whether a
// resize occurred.
func (s *Switchboard) Step(input uint64, corrupted func(i int) bool, rng *xrand.Rand) (voting.Outcome, bool) {
	o := s.farm.Round(input, corrupted, rng)
	dir, changed := s.ctrl.Observe(o)
	if !changed {
		return o, false
	}
	return o, s.deliver(dir)
}

// StepFirstK is the allocation-free variant of Step for the §3.3 storm
// model, where a disturbance corrupts the first k replicas: it avoids
// both the per-round corruption closure and the per-round ballot slice
// (see voting.Farm.RoundFirstK). On consensus rounds — the overwhelming
// majority of a Fig. 7 campaign — it performs zero heap allocations.
func (s *Switchboard) StepFirstK(input uint64, k int, rng *xrand.Rand) (voting.Outcome, bool) {
	o := s.farm.RoundFirstK(input, k, rng)
	dir, changed := s.ctrl.Observe(o)
	if !changed {
		return o, false
	}
	return o, s.deliver(dir)
}

// StepFaulty runs one round under an explicit fault environment, the
// chaos harness's superset of StepFirstK: k replicas are corrupted;
// when collude is set they form a Byzantine group voting one shared
// wrong value (voting.Farm.RoundColluding); when partitioned is set the
// organ↔controller link is down this round — the vote still runs, but
// the outcome observation is lost, so the controller neither updates
// its streaks nor issues a resize. With both flags false it is
// operation-for-operation StepFirstK.
func (s *Switchboard) StepFaulty(input uint64, k int, collude, partitioned bool, rng *xrand.Rand) (voting.Outcome, bool) {
	var o voting.Outcome
	if collude {
		o = s.farm.RoundColluding(input, k, rng)
	} else {
		o = s.farm.RoundFirstK(input, k, rng)
	}
	if partitioned {
		return o, false
	}
	dir, changed := s.ctrl.Observe(o)
	if !changed {
		return o, false
	}
	return o, s.deliver(dir)
}

// StepFaultyRef is the reference-loop idiom of StepFaulty: per-round
// corruption closures and heap ballots (voting.Farm.Round/RoundShared),
// kept as an independent implementation so the differential replay can
// assert engine parity on colluding and partitioned rounds too. The
// ballot values and rng consumption match StepFaulty(input, k, ...)
// exactly.
func (s *Switchboard) StepFaultyRef(input uint64, k int, collude, partitioned bool, rng *xrand.Rand) (voting.Outcome, bool) {
	var corrupted func(i int) bool
	if k > 0 {
		kk := k
		corrupted = func(i int) bool { return i < kk }
	}
	var o voting.Outcome
	if collude {
		o = s.farm.RoundShared(input, corrupted, rng)
	} else {
		o = s.farm.Round(input, corrupted, rng)
	}
	if partitioned {
		return o, false
	}
	dir, changed := s.ctrl.Observe(o)
	if !changed {
		return o, false
	}
	return o, s.deliver(dir)
}
