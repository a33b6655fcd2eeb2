package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// Key is the content address of a stored entry: a SHA-256 digest of the
// request identity that produced it.
type Key [sha256.Size]byte

// String returns the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeySpec is the canonical identity of a cacheable computation.  Two requests
// with equal specs are guaranteed to produce identical results: every field
// that influences the output — which catalogued workload, which adversary
// override, the seed range, and the engine and codec versions (so entries
// recorded by an incompatible binary are never served) — participates in the
// digest, and nothing else does.
type KeySpec struct {
	// Kind is the computation family: "sweep" or "extract".
	Kind string
	// Name is the catalogued scenario or extraction pipeline name.
	Name string
	// Adversary is the overriding adversary name ("" means the catalog
	// entry's own schedule).
	Adversary string
	// SeedBase is the first seed of the deterministic seed range.
	SeedBase int64
	// Count is the number of seeds (sweeps) or sampled runs (extractions).
	Count int
}

// keyPrefixFormat renders the part of a digest's preimage that precedes the
// seed range: the versions, then the spec's Kind, Name and Adversary.
const keyPrefixFormat = "udc-store|codec=%d|engine=%d|%s|%s|%s|"

// Key digests the spec.
func (ks KeySpec) Key() Key {
	h := sha256.New()
	fmt.Fprintf(h, keyPrefixFormat+"%d|%d",
		CodecVersion, sim.EngineVersion, ks.Kind, ks.Name, ks.Adversary, ks.SeedBase, ks.Count)
	var k Key
	h.Sum(k[:0])
	return k
}

// SeedKeySpec is the identity of one per-seed run record: the qualified
// source name (the caller prefixes its catalog namespace, e.g. "scenario:",
// so two catalog families that share a name can never alias),
// the adversary override, and the concrete seed value.  Keying on the seed
// value — not on any (seedBase, count) window — is what makes overlapping
// sweep windows share work: every window that derives the same seed resolves
// to the same record.
func SeedKeySpec(qualifiedName, adversary string, seed int64) KeySpec {
	return KeySpec{Kind: "seed", Name: qualifiedName, Adversary: adversary, SeedBase: seed, Count: 1}
}

// AppendSeedKeys appends SeedKeySpec(qualifiedName, adversary, seed).Key()
// for every seed of a window to dst.  The seeds share everything before the
// seed value, so the prefix is rendered once and each digest costs one
// integer append and one SHA-256 — a window's keys are derived on every
// request that reaches the per-seed records.
func AppendSeedKeys(dst []Key, qualifiedName, adversary string, seeds []int64) []Key {
	buf := fmt.Appendf(nil, keyPrefixFormat, CodecVersion, sim.EngineVersion, "seed", qualifiedName, adversary)
	prefix := len(buf)
	for _, seed := range seeds {
		buf = append(strconv.AppendInt(buf[:prefix], seed, 10), "|1"...)
		dst = append(dst, sha256.Sum256(buf))
	}
	return dst
}
