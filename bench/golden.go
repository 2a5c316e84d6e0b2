package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"compisa/internal/eval"
	"compisa/internal/explore"
)

// goldenPath is where -update writes the digests, relative to the repository
// root the benchmark runs from.
const goldenPath = "bench/golden.json"

//go:embed golden.json
var goldenJSON []byte

// digests are the seed-independent fingerprints of the pipeline's outputs.
// A missing field was not computed by the run.
type digests struct {
	Profiles   string `json:"profiles_sha256,omitempty"`
	Candidates string `json:"candidates_sha256,omitempty"`
	Searches   string `json:"searches_sha256,omitempty"`
	// Served fingerprints serve-mixed's last pass; it depends on the seed,
	// so it is printed for comparing runs but never stored.
	Served string `json:"-"`
}

func loadGolden() (digests, error) {
	var g digests
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// mismatches compares the fields this run computed against the golden ones.
func (d digests) mismatches(g digests) []string {
	var out []string
	check := func(name, got, want string) {
		if got != "" && got != want {
			out = append(out, fmt.Sprintf("%s digest %s, golden %s", name, short(got), short(want)))
		}
	}
	check("profiles", d.Profiles, g.Profiles)
	check("candidates", d.Candidates, g.Candidates)
	check("searches", d.Searches, g.Searches)
	return out
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// merge copies d's computed fields over g's.
func (g *digests) merge(d digests) {
	if d.Profiles != "" {
		g.Profiles = d.Profiles
	}
	if d.Candidates != "" {
		g.Candidates = d.Candidates
	}
	if d.Searches != "" {
		g.Searches = d.Searches
	}
}

// update writes d's computed fields over g and stores the result.
func (d digests) update(g digests) error {
	g.merge(d)
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// profileDigest hashes the cpf1 encoding of every (ISA key, region) profile
// in key order, then region order. The profiles come from the DB's cache.
func profileDigest(ctx context.Context, db *eval.DB) (string, error) {
	h := sha256.New()
	for _, key := range eval.ChoiceKeys() {
		c, _ := eval.ChoiceByKey(key)
		ps, err := db.Profiles(ctx, c)
		if err != nil {
			return "", err
		}
		for i, p := range ps {
			if p == nil {
				return "", fmt.Errorf("profile %s on %s quarantined", db.Regions[i].Name, key)
			}
			b, err := p.MarshalBinary()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, "%s|%d|", key, len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// candidateDigest hashes (CacheKey, Speedup bits, NormEDP bits) of every
// candidate of every organization, organizations in presentation order.
func candidateDigest(byOrg map[explore.Organization][]*eval.Candidate) string {
	h := sha256.New()
	for _, org := range explore.Organizations() {
		for _, c := range byOrg[org] {
			h.Write([]byte(c.DP.CacheKey()))
			writeFloats(h, c.Speedup)
			writeFloats(h, c.NormEDP)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// searchLine renders one search result: the search's identity, its four
// design points and the score bits.
func searchLine(org explore.Organization, obj explore.Objective, b explore.Budget, cmp explore.CMP) string {
	s := fmt.Sprintf("%d|%d|%s", org, obj, b)
	for _, c := range cmp.Cores {
		s += "|" + c.DP.CacheKey()
	}
	return s + fmt.Sprintf("|%016x", math.Float64bits(cmp.Score))
}

// searchDigest hashes the search lines in sorted order, so the seed's
// ordering of the searches does not change it.
func searchDigest(lines []string) string {
	sorted := append([]string(nil), lines...)
	sort.Strings(sorted)
	h := sha256.New()
	for _, l := range sorted {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeFloats(h io.Writer, vs []float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// servedDigest hashes each reply's cache key and scores, in request order.
func servedDigest(replies []reply) string {
	h := sha256.New()
	for _, r := range replies {
		h.Write([]byte(r.res.CacheKey))
		writeFloats(h, []float64{r.res.MeanSpeedup, r.res.AreaMM2, r.res.PeakW})
	}
	return hex.EncodeToString(h.Sum(nil))
}
