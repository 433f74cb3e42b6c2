package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"shangrila/internal/apps"
	"shangrila/internal/driver"
	"shangrila/internal/workload"
)

// Point is one sweep coordinate: app × level × enabled MEs × seed.
// A non-zero OfferedGbps overrides the workload spec's offered load for
// this point (load–latency sweeps vary it against one compiled image).
type Point struct {
	App         *apps.App
	Level       driver.Level
	NumMEs      int
	Seed        uint64
	OfferedGbps float64
}

// compileKey identifies a shared compilation: the measurement grid varies
// ME counts against one compiled image per (app, level, seed).
type compileKey struct {
	app   string
	level driver.Level
	seed  uint64
}

// compileOnce is a per-sweep memoized compiler: the first worker to need
// a (app, level, seed) image compiles it, later workers block on the
// entry and share the result. Measurement is read-only over the compiled
// image, so sharing across goroutines is safe.
type compileOnce struct {
	mu    sync.Mutex
	cache map[compileKey]*compileEntry
}

type compileEntry struct {
	once sync.Once
	res  *driver.Result
	err  error
}

func (c *compileOnce) get(a *apps.App, cfg RunConfig) (*driver.Result, error) {
	key := compileKey{app: a.Name, level: cfg.Level, seed: cfg.Seed}
	c.mu.Lock()
	e, ok := c.cache[key]
	if !ok {
		e = &compileEntry{}
		c.cache[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = cfg.compile(a)
	})
	return e.res, e.err
}

// Sweep measures every point under cfg, with the point's app, level, ME
// count and seed (and offered load, when set) in place of cfg's. Each
// (app, level, seed) combination compiles exactly once; simulation points
// fan out across min(cfg.Workers, len(points)) goroutines (default
// GOMAXPROCS). Results are returned in point order regardless of
// completion order — the same points with the same seeds produce the same
// results at any worker count, because each point's simulation is
// single-threaded and seeded. The first error cancels unstarted points.
// A config with a ChromeTrace writer is an error: concurrent points would
// interleave one document, so callers trace a single representative point
// with RunConfig.Run instead. So is one with a Compiled image, which no
// point's own level and seed would reach.
func Sweep(points []Point, cfg RunConfig) ([]*Result, error) {
	switch {
	case cfg.ChromeTrace != nil:
		return nil, fmt.Errorf("harness: a sweep of %d points cannot stream one Chrome trace; trace a single point with Run", len(points))
	case cfg.Compiled != nil:
		return nil, fmt.Errorf("harness: a sweep compiles each point at its own level and seed; it cannot take a Compiled image")
	}
	workers := cfg.workerCount()
	if workers > len(points) {
		workers = len(points)
	}
	if len(points) == 0 {
		return nil, nil
	}

	compiler := &compileOnce{cache: map[compileKey]*compileEntry{}}
	results := make([]*Result, len(points))
	errs := make([]error, len(points))
	var failed atomic.Bool
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := points[i]
				c := cfg
				c.NumMEs, c.Seed, c.Level = p.NumMEs, p.Seed, p.Level
				res, err := compiler.get(p.App, c)
				if err != nil {
					errs[i] = fmt.Errorf("%s at %v: %w", p.App.Name, p.Level, err)
					failed.Store(true)
					continue
				}
				if p.OfferedGbps > 0 {
					var sp workload.Spec
					if cfg.Workload != nil {
						sp = *cfg.Workload
					}
					sp.OfferedGbps = p.OfferedGbps
					c.Workload = &sp
				}
				results[i], errs[i] = c.measure(p.App, res)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	// Stop feeding once any finished point errored; already-dispatched
	// points run to completion.
	for i := range points {
		if failed.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep point %d (%s %v %dME seed %d): %w",
				i, points[i].App.Name, points[i].Level, points[i].NumMEs,
				points[i].Seed, err)
		}
	}
	return results, nil
}
