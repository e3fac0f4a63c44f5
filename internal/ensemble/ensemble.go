// Package ensemble implements the bagging framework of the paper's Fig. 2:
// M base classifiers are trained on bootstrap replicates of the training
// set, and at inference the ensemble exposes the individual hard decisions
// ("votes") of its members — the analogue of iterating scikit-learn's
// estimators_ attribute — from which the uncertainty estimator builds the
// vote frequency distribution.
//
// The framework is generic over a model.Factory, so Random Forest trees,
// logistic regressions and SVMs all plug in unchanged. It also
// supports random-restart diversity (no bootstrap resampling, different
// seeds only) for the deep-ensembles-style ablation.
package ensemble

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"trusthmd/pkg/linalg"
	"trusthmd/pkg/model"
)

// Diversity selects how ensemble members are diversified.
type Diversity int

const (
	// Bootstrap trains each member on a bootstrap replicate (bagging,
	// Breiman 1996) — the paper's method.
	Bootstrap Diversity = iota
	// RandomInit trains each member on the full training set; diversity
	// comes only from the member's own seed (deep-ensembles style [8]).
	RandomInit
)

// String implements fmt.Stringer.
func (d Diversity) String() string {
	switch d {
	case Bootstrap:
		return "bootstrap"
	case RandomInit:
		return "random-init"
	default:
		return fmt.Sprintf("diversity(%d)", int(d))
	}
}

// Config controls ensemble training.
type Config struct {
	// M is the number of base classifiers (the paper varies 1..100 and
	// settles on ~20-25).
	M int
	// New constructs an untrained base classifier from a seed. Required.
	New model.Factory
	// Diversity selects bagging vs random-restart (default Bootstrap).
	Diversity Diversity
	// MaxSamples is the bootstrap replicate size as a fraction of the
	// training set (sklearn BaggingClassifier's max_samples); 0 means 1.0.
	// Smaller replicates increase member diversity at some cost in member
	// strength.
	MaxSamples float64
	// MaxFeatures is the per-member feature subset size as a fraction of
	// the input dimensionality (sklearn BaggingClassifier's max_features);
	// 0 means 1.0. Members train and predict on their own random feature
	// subset, the classic recipe for diversifying otherwise-stable base
	// learners (random subspaces, Ho 1998).
	MaxFeatures float64
	// Seed drives bootstrap resampling and member seeds.
	Seed int64
	// Workers caps fit-time parallelism, the size of Fit's goroutine pool;
	// 0 means GOMAXPROCS.
	Workers int
}

// Bagging is the trained ensemble.
type Bagging struct {
	cfg      Config
	members  []model.Classifier
	features [][]int // per-member feature subset; nil = all features
	classes  int
}

// ErrNotFitted reports use before Fit.
var ErrNotFitted = errors.New("ensemble: not fitted")

// New returns an untrained ensemble.
func New(cfg Config) *Bagging {
	return &Bagging{cfg: cfg}
}

// Fit trains the M members. With Bootstrap diversity each member sees a
// with-replacement draw of MaxSamples·n rows of (X, y) (all n when
// MaxSamples is 0); with RandomInit each member sees the full data and only
// its seed differs. A MaxFeatures subset restricts a member to its own
// columns.
//
// Members train on a fixed pool of up to Workers goroutines, each taking
// the next member from a shared counter. When every member implements
// model.Presorter (trees do), X is presorted once, on the same pool, and
// each goroutine trains its members from that shared read-only presort
// with scratch of its own: a member's replicate is handed over as row
// counts drawn from the rng sequence ResampleN uses, and its feature subset
// as a column map, so nothing is copied per member. Other families train
// on a ResampleN copy of their replicate, selectColumns applied. Either
// way every member, and so the ensemble, is a function of Config.Seed
// alone, whatever the worker count; when members fail, the first failure
// in member order is returned.
func (b *Bagging) Fit(X *linalg.Matrix, y []int) error {
	if b.cfg.M < 1 {
		return fmt.Errorf("ensemble: config needs M>=1, got %d", b.cfg.M)
	}
	if b.cfg.New == nil {
		return errors.New("ensemble: config needs a New factory")
	}
	if X.Rows() == 0 {
		return errors.New("ensemble: empty training set")
	}
	if X.Rows() != len(y) {
		return fmt.Errorf("ensemble: %d rows but %d labels", X.Rows(), len(y))
	}
	if b.cfg.MaxSamples < 0 || b.cfg.MaxSamples > 1 {
		return fmt.Errorf("ensemble: max samples %v outside (0,1]", b.cfg.MaxSamples)
	}
	if b.cfg.MaxFeatures < 0 || b.cfg.MaxFeatures > 1 {
		return fmt.Errorf("ensemble: max features %v outside (0,1]", b.cfg.MaxFeatures)
	}
	maxLabel := 0
	for _, lab := range y {
		if lab > maxLabel {
			maxLabel = lab
		}
	}
	b.classes = maxLabel + 1
	if b.classes < 2 {
		b.classes = 2
	}

	seedRng := rand.New(rand.NewSource(b.cfg.Seed))
	bootSeeds := make([]int64, b.cfg.M)
	featureSets := make([][]int, b.cfg.M)
	members := make([]model.Classifier, b.cfg.M)
	nSub := X.Cols()
	if b.cfg.MaxFeatures > 0 {
		nSub = int(b.cfg.MaxFeatures * float64(X.Cols()))
		if nSub < 1 {
			nSub = 1
		}
	}
	for i := 0; i < b.cfg.M; i++ {
		bootSeeds[i] = seedRng.Int63()
		members[i] = b.cfg.New(seedRng.Int63())
		if nSub < X.Cols() {
			idx := seedRng.Perm(X.Cols())[:nSub]
			sortInts(idx)
			featureSets[i] = idx
		}
	}
	size := X.Rows()
	if b.cfg.MaxSamples > 0 {
		size = max(int(b.cfg.MaxSamples*float64(X.Rows())), 1)
	}
	workers := b.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// memberFit returns one goroutine's fit function: train member m.
	memberFit := func() func(m int) error {
		return func(m int) error {
			tx, ty := X, y
			if b.cfg.Diversity == Bootstrap {
				tx, ty = ResampleN(X, y, size, rand.New(rand.NewSource(bootSeeds[m])))
			}
			if featureSets[m] != nil {
				tx = selectColumns(tx, featureSets[m])
			}
			return members[m].Fit(tx, ty)
		}
	}
	if p, ok := presorter(members); ok {
		newFitter, err := p.Presort(X, y, func(n int, task func(i int)) {
			run(workers, n, func() func(int) { return task })
		})
		if err != nil {
			return fmt.Errorf("ensemble: %w", err)
		}
		memberFit = func() func(m int) error {
			fit, counts := newFitter(), make([]int32, X.Rows())
			return func(m int) error {
				b.drawCounts(counts, size, bootSeeds[m])
				return fit(members[m], counts, featureSets[m])
			}
		}
	}
	errs := make([]error, b.cfg.M)
	run(workers, b.cfg.M, func() func(int) {
		fit := memberFit()
		return func(m int) {
			if err := fit(m); err != nil {
				errs[m] = fmt.Errorf("ensemble: member %d: %w", m, err)
			}
		}
	})

	b.members, b.features = nil, nil
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	b.members, b.features = members, featureSets
	return nil
}

// presorter returns the first member as a model.Presorter when every
// member is one.
func presorter(members []model.Classifier) (model.Presorter, bool) {
	for _, c := range members {
		if _, ok := c.(model.Presorter); !ok {
			return nil, false
		}
	}
	return members[0].(model.Presorter), true
}

// drawCounts writes a member's replicate into counts, by row: with
// Bootstrap diversity how often size draws from rng seeded with seed —
// ResampleN's draws, in ResampleN's order — pick the row, otherwise 1.
func (b *Bagging) drawCounts(counts []int32, size int, seed int64) {
	if b.cfg.Diversity != Bootstrap {
		for i := range counts {
			counts[i] = 1
		}
		return
	}
	clear(counts)
	rng := rand.New(rand.NewSource(seed))
	for range size {
		counts[rng.Intn(len(counts))]++
	}
}

// run calls a task for every i in [0, n) on up to workers goroutines, which
// take i from a shared counter, and returns when all tasks have returned.
// Each goroutine first calls worker for its own task function, so scratch
// made there is reused across that goroutine's tasks and never shared.
func run(workers, n int, worker func() func(i int)) {
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			task := worker()
			for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
				task(int(i))
			}
		}()
	}
	wg.Wait()
}

// sortInts is a tiny insertion sort; feature subsets are short.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// selectColumns builds a matrix restricted to the given columns.
func selectColumns(X *linalg.Matrix, cols []int) *linalg.Matrix {
	out := linalg.New(X.Rows(), len(cols))
	for i := 0; i < X.Rows(); i++ {
		src := X.Row(i)
		dst := out.Row(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out
}

// memberInput projects x onto member m's feature subset (or returns x when
// the member uses all features).
func (b *Bagging) memberInput(m int, x []float64) []float64 {
	cols := b.features[m]
	if cols == nil {
		return x
	}
	return gather(make([]float64, len(cols)), x, cols)
}

// gather copies the cols entries of x into dst (len(cols)) and returns it.
func gather(dst, x []float64, cols []int) []float64 {
	for j, c := range cols {
		dst[j] = x[c]
	}
	return dst
}

// ResampleN draws a size-sample bootstrap replicate of (X, y), sampling
// with replacement.
func ResampleN(X *linalg.Matrix, y []int, size int, rng *rand.Rand) (*linalg.Matrix, []int) {
	n := X.Rows()
	bx := linalg.New(size, X.Cols())
	by := make([]int, size)
	for i := 0; i < size; i++ {
		j := rng.Intn(n)
		copy(bx.Row(i), X.Row(j))
		by[i] = y[j]
	}
	return bx, by
}

// Estimators returns the trained members — the sklearn estimators_
// analogue. The returned slice is shared; do not mutate.
func (b *Bagging) Estimators() []model.Classifier {
	if b.members == nil {
		panic(ErrNotFitted)
	}
	return b.members
}

// Size returns the number of trained members.
func (b *Bagging) Size() int { return len(b.members) }

// Votes returns the hard decision of every member on x.
func (b *Bagging) Votes(x []float64) []int {
	if b.members == nil {
		panic(ErrNotFitted)
	}
	votes := make([]int, len(b.members))
	for i, m := range b.members {
		votes[i] = m.Predict(b.memberInput(i, x))
	}
	return votes
}

// AccumulateVotes adds the votes of members [from, to) on every row of Z
// into counts, a row-major rows x k histogram slab (a vote v on row i
// increments counts[i*k+v]). votes (len >= rows) and input (len >=
// MaxMemberDim) are caller-owned scratch, so the steady state allocates
// nothing. A vote outside [0, k) has no cell in the slab and is an error.
//
// The walk is chosen per member from the batch it is handed. Over several
// rows, members that implement model.BatchClassifier and see the full
// feature space vote through PredictBatch — one pass per member keeps that
// member's model state cache-hot across the whole batch. A lone row has
// nothing to amortise a batch kernel's dispatch over, and feature-subset
// members have no batch form, so both take the per-row Predict walk.
// Labels are identical either way (the BatchClassifier contract).
//
// ZT, when non-nil, is the transpose of Z, computed once by the caller and
// shared read-only by every member implementing model.ColsBatchClassifier
// (the vectorized tree kernel wants feature-major loads). Pass nil when no
// member would read it (see WantsCols); predictions are identical either
// way.
//
// Counts are added, never reset, so votes over disjoint member ranges
// accumulate into one slab in any order with the same result.
func (b *Bagging) AccumulateVotes(Z, ZT *linalg.Matrix, counts []int, k, from, to int, votes []int, input []float64) error {
	if b.members == nil {
		panic(ErrNotFitted)
	}
	n := Z.Rows()
	if from < 0 || to > len(b.members) || from > to {
		return fmt.Errorf("ensemble: member range [%d,%d) of %d", from, to, len(b.members))
	}
	if len(counts) < n*k {
		return fmt.Errorf("ensemble: counts len %d for %d rows x %d classes", len(counts), n, k)
	}
	members, features := b.members[from:to], b.features[from:to]
	if n == 1 {
		// The lone-row shape of the walk below: with the row hoisted out of
		// the member loop nothing but the vote survives each Predict call.
		x := Z.Row(0)
		for m, member := range members {
			xi := x
			if cols := features[m]; cols != nil {
				xi = gather(input[:len(cols)], x, cols)
			}
			v := member.Predict(xi)
			if v < 0 || v >= k {
				return fmt.Errorf("ensemble: member vote %d outside [0, %d)", v, k)
			}
			counts[v]++
		}
		return nil
	}
	for m, member := range members {
		cols := features[m]
		if cols == nil {
			if bc, ok := member.(model.BatchClassifier); ok {
				if cbc, ok := bc.(model.ColsBatchClassifier); ok && ZT != nil {
					cbc.PredictBatchCols(Z, ZT, votes[:n])
				} else {
					bc.PredictBatch(Z, votes[:n])
				}
				ci := 0
				for _, v := range votes[:n] {
					if v < 0 || v >= k {
						return fmt.Errorf("ensemble: member vote %d outside [0, %d)", v, k)
					}
					counts[ci+v]++
					ci += k
				}
				continue
			}
		}
		for i := 0; i < n; i++ {
			x := Z.Row(i)
			if cols != nil {
				x = gather(input[:len(cols)], x, cols)
			}
			v := member.Predict(x)
			if v < 0 || v >= k {
				return fmt.Errorf("ensemble: member vote %d outside [0, %d)", v, k)
			}
			counts[i*k+v]++
		}
	}
	return nil
}

// WantsCols reports whether any full-feature member would use a
// feature-major (transposed) copy of the batch in AccumulateVotes. When
// false, callers should pass ZT == nil and skip the transpose entirely.
func (b *Bagging) WantsCols() bool {
	for m, member := range b.members {
		if b.features[m] != nil {
			continue // subset members vote per-row; no batch path
		}
		if cbc, ok := member.(model.ColsBatchClassifier); ok && cbc.WantsCols() {
			return true
		}
	}
	return false
}

// MaxMemberDim returns the widest member input (the full feature space, or
// the largest feature subset) — the scratch size AccumulateVotes needs. It
// fails unless every feature subset is strictly increasing within [0,
// full), the only shape Fit draws, and unless every member that reports
// its trained width (a NumFeatures method) is fed exactly that many
// columns: a column outside the row would send gather past its end, and a
// width the member was not trained on panics inside the member, so a
// decoded ensemble is checked here before it serves.
func (b *Bagging) MaxMemberDim(full int) (int, error) {
	dim := 0
	for m, cols := range b.features {
		width := full
		if cols != nil {
			for j, c := range cols {
				if c < 0 || c >= full || (j > 0 && c <= cols[j-1]) {
					return 0, fmt.Errorf("ensemble: member %d feature subset %v is not strictly increasing within [0, %d)", m, cols, full)
				}
			}
			width = len(cols)
		}
		if w, ok := b.members[m].(interface{ NumFeatures() int }); ok && w.NumFeatures() != width {
			return 0, fmt.Errorf("ensemble: member %d is fed %d features (feature subset %v), trained on %d", m, width, cols, w.NumFeatures())
		}
		dim = max(dim, width)
	}
	if dim == 0 {
		dim = full
	}
	return dim, nil
}

// MemberProbas returns one k-wide posterior distribution per member: the
// member's PredictProba when available, else a one-hot encoding of its hard
// vote. This is the input to the uncertainty decomposition (core.Decompose).
// The caller gives the width, as it does to AccumulateVotes, so a decoded
// ensemble's class count never sizes an allocation.
func (b *Bagging) MemberProbas(x []float64, k int) [][]float64 {
	if b.members == nil {
		panic(ErrNotFitted)
	}
	out := make([][]float64, len(b.members))
	for i, m := range b.members {
		xi := b.memberInput(i, x)
		row := make([]float64, k)
		if pc, ok := m.(model.ProbClassifier); ok {
			copy(row, pc.PredictProba(xi))
		} else if v := m.Predict(xi); v >= 0 && v < k {
			row[v] = 1
		}
		out[i] = row
	}
	return out
}

// Truncated returns a view of the ensemble restricted to its first m
// members (used by the Fig. 9a ensemble-size sweep so one 100-member fit
// serves every prefix). It shares trained members with the receiver.
func (b *Bagging) Truncated(m int) (*Bagging, error) {
	if b.members == nil {
		return nil, ErrNotFitted
	}
	if m < 1 || m > len(b.members) {
		return nil, fmt.Errorf("ensemble: truncate to %d of %d members", m, len(b.members))
	}
	return &Bagging{cfg: b.cfg, members: b.members[:m], features: b.features[:m], classes: b.classes}, nil
}
