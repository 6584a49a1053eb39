package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/basis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eri"
)

// errorBound is the absolute error bound of every workload (the
// GAMESS requirement the paper targets).
const errorBound = 1e-10

// newRand returns the workload's deterministic generator for one
// purpose (stream), so the data and the schedule draw independent
// sequences from the same seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// jitterAngstrom is the standard deviation of the seeded displacement
// of every atom coordinate: a thermal snapshot of the cluster.
const jitterAngstrom = 0.02

// generate computes nblocks real (ll|ll) ERI blocks of a paper molecule
// cluster, in integral order as a tape would hold them. The quartets
// are an even-stride sample of those surviving Schwarz screening at the
// cluster's reference geometry; the seed then displaces every atom by a
// small random amount before the integrals are computed, so each seed
// gives different values for the same mix of near and far shell pairs.
func generate(molecule string, l, nblocks int, rng *rand.Rand) (*eri.Dataset, time.Duration, error) {
	t0 := time.Now()
	mol, err := dataset.PaperMolecule(molecule)
	if err != nil {
		return nil, 0, err
	}
	ref, err := prepareShells(mol, l)
	if err != nil {
		return nil, 0, err
	}
	qs, err := eri.SelectQuartets(ref, l, eri.DefaultScreenTol, nblocks)
	if err != nil {
		return nil, 0, err
	}
	if len(qs) < nblocks {
		return nil, 0, fmt.Errorf("generate: %s l=%d has %d quartets, want %d", molecule, l, len(qs), nblocks)
	}
	for i := range mol.Atoms {
		for k := range mol.Atoms[i].Pos {
			mol.Atoms[i].Pos[k] += rng.NormFloat64() * jitterAngstrom * basis.AngstromToBohr
		}
	}
	prepared, err := prepareShells(mol, l)
	if err != nil {
		return nil, 0, err
	}
	ds, err := eri.ComputeQuartets(molecule, prepared, qs, 0)
	if err != nil {
		return nil, 0, err
	}
	return ds, time.Since(t0), nil
}

// prepareShells builds the pure-l shells of mol ready for integrals.
func prepareShells(mol basis.Molecule, l int) ([]*eri.PreparedShell, error) {
	shells, err := basis.PureShells(mol, l)
	if err != nil {
		return nil, err
	}
	prepared := make([]*eri.PreparedShell, len(shells))
	for i, s := range shells {
		prepared[i] = eri.Prepare(s)
	}
	return prepared, nil
}

// codecConfig is the configuration every workload compresses with: the
// paper's shipped defaults at errorBound.
func codecConfig(numSB, sbSize int) core.Config {
	return core.Defaults(numSB, sbSize, errorBound)
}

// oracleDecode is the correctness oracle for served data: a local
// serial core.Compress then core.Decompress of the same values.
func oracleDecode(data []float64, cfg core.Config) (comp []byte, dec []float64, err error) {
	cfg.Workers = 1
	comp, err = core.Compress(data, cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle compress: %w", err)
	}
	dec, err = core.Decompress(comp, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle decompress: %w", err)
	}
	return comp, dec, nil
}

// leBytes encodes values as raw little-endian float64, the wire format
// of pastrid uploads and block reads.
func leBytes(vs []float64) []byte {
	out := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// maxAbsErr returns max |a[i] − b[i]|.
func maxAbsErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m || math.IsNaN(d) {
			m = d
		}
	}
	return m
}
