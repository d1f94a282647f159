// Package faultinject is a seeded, deterministic fault injector for the
// engine's I/O seams. The paper's coordinator assumes failures are routine —
// it "monitors worker liveness and fails queries whose tasks die" (§III) —
// and production deployments treat transient fetch errors from remote
// storage as ordinary events. This package lets tests (and the chaos suite)
// reproduce those events on demand: faults are addressed to named sites
// (connector split enumeration, shuffle fetches, task creation), fire at a
// configured rate from a per-site seeded generator, and can be bounded
// (MaxFaults) or deferred (After) to hit precise code paths such as
// mid-stage task-creation failure.
//
// Determinism: each (site, rule) pair owns an independent generator derived
// from the injector seed and the site name, so the decision sequence at one
// site does not depend on how calls to other sites interleave. Concurrent
// callers of the same site serialize on the injector's mutex; the k-th call
// at a site always sees the same decision for a given seed.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/shuffle"
)

// Injection sites threaded through the engine. A Rule's Site must be one of
// these to have any effect.
const (
	// SiteConnectorSplits guards Connector.Splits (split-source open).
	SiteConnectorSplits = "connector.splits"
	// SiteConnectorNextBatch guards SplitSource.NextBatch.
	SiteConnectorNextBatch = "connector.nextbatch"
	// SiteShuffleFetch guards shuffle.Fetcher.Fetch (exchange pulls).
	SiteShuffleFetch = "shuffle.fetch"
	// SiteTaskCreate guards Worker.CreateTask in the scheduler.
	SiteTaskCreate = "scheduler.createtask"
	// SiteTaskStart sits in Worker.CreateTask between a task's registration
	// and its Start: a delay fault widens the window in which a registered
	// task has no drivers yet, which must not read as finished.
	SiteTaskStart = "exec.taskstart"
	// SiteMorselOpen guards split opens inside the morsel queue (exercises
	// the cancel/open-failure cleanup paths of scan pipelines).
	SiteMorselOpen = "exec.morselopen"
	// SiteFilterPublish guards dynamic-filter publication from a join build:
	// delay faults stall delivery past the probe's bounded wait, error
	// faults drop the filter entirely — either way the probe side must
	// degrade to an unfiltered scan with identical results.
	SiteFilterPublish = "dynfilter.publish"
	// SiteResultCacheCorrupt guards serving-tier result-cache hits: a fault
	// makes the entry's checksum verification fail, so the hit degrades to a
	// miss and the query re-executes.
	SiteResultCacheCorrupt = "serving.resultcorrupt"
)

// Kind selects what an injected fault does.
type Kind int

const (
	// KindError makes the call fail with an *Error.
	KindError Kind = iota
	// KindDelay stalls the call by Rule.Delay, then lets it proceed.
	KindDelay
	// KindPartial truncates a fetch response to roughly half its pages
	// without advancing the token past the kept pages (only meaningful at
	// SiteShuffleFetch; ignored elsewhere).
	KindPartial
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindPartial:
		return "partial"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule configures fault behaviour at one site.
type Rule struct {
	// Site names the injection point (one of the Site* constants).
	Site string
	// Kind selects the fault effect.
	Kind Kind
	// Rate is the per-call firing probability in [0, 1].
	Rate float64
	// Delay is the stall duration for KindDelay.
	Delay time.Duration
	// Transient marks injected errors as retryable: recovery code treats
	// them like a dropped connection rather than a logic error.
	Transient bool
	// After suppresses the rule for the first After calls at the site,
	// targeting mid-operation failures (e.g. the third CreateTask).
	After int64
	// MaxFaults caps how many times the rule fires (0 = unlimited).
	MaxFaults int64
}

type siteRule struct {
	Rule
	rng   *rand.Rand
	calls int64
	fired int64
}

// Injector decides, per call site, whether to inject a fault. A nil
// *Injector is valid and never injects, so call sites need no guards.
type Injector struct {
	mu    sync.Mutex
	rules map[string][]*siteRule
}

// New creates an injector with the given seed and rules. Rules at the same
// site are evaluated in order; the first that fires wins.
func New(seed int64, rules ...Rule) *Injector {
	inj := &Injector{rules: map[string][]*siteRule{}}
	for i, r := range rules {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", r.Site, i)
		sr := &siteRule{Rule: r, rng: rand.New(rand.NewSource(seed ^ int64(h.Sum64())))}
		inj.rules[r.Site] = append(inj.rules[r.Site], sr)
	}
	return inj
}

// Clear removes every rule: subsequent calls proceed fault-free. Used by
// chaos tests to verify a cluster recovers once the fault condition lifts.
func (i *Injector) Clear() {
	if i == nil {
		return
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.rules = map[string][]*siteRule{}
}

// fault is one injection decision.
type fault struct {
	kind  Kind
	delay time.Duration
	err   error
}

// decide serializes the per-site decision; nil means the call proceeds.
func (i *Injector) decide(site string) *fault {
	if i == nil {
		return nil
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, r := range i.rules[site] {
		r.calls++
		if r.calls <= r.After {
			continue
		}
		if r.MaxFaults > 0 && r.fired >= r.MaxFaults {
			continue
		}
		if r.rng.Float64() >= r.Rate {
			continue
		}
		r.fired++
		f := &fault{kind: r.Kind, delay: r.Delay}
		if r.Kind == KindError {
			f.err = &Error{Site: site, Seq: r.fired, IsTransient: r.Transient}
		}
		return f
	}
	return nil
}

// Err evaluates the site's rules: delay faults sleep and return nil, error
// faults return an *Error, partial faults are ignored (they only make sense
// on fetch responses). Safe on a nil receiver.
func (i *Injector) Err(site string) error {
	f := i.decide(site)
	if f == nil {
		return nil
	}
	switch f.kind {
	case KindDelay:
		time.Sleep(f.delay)
		return nil
	case KindError:
		return f.err
	}
	return nil
}

// has reports whether any rule is set at a site. Safe on a nil receiver.
func (i *Injector) has(site string) bool {
	if i == nil {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.rules[site]) > 0
}

// Count reports how many faults have fired at a site (all rules summed).
func (i *Injector) Count(site string) int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int64
	for _, r := range i.rules[site] {
		n += r.fired
	}
	return n
}

// Total reports faults fired across all sites.
func (i *Injector) Total() int64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	var n int64
	for _, rs := range i.rules {
		for _, r := range rs {
			n += r.fired
		}
	}
	return n
}

// Error is an injected failure.
type Error struct {
	// Site is where the fault fired.
	Site string
	// Seq numbers the fault within its rule (1-based).
	Seq int64
	// IsTransient mirrors the rule's Transient flag.
	IsTransient bool
}

func (e *Error) Error() string {
	kind := "fatal"
	if e.IsTransient {
		kind = "transient"
	}
	return fmt.Sprintf("injected %s fault #%d at %s", kind, e.Seq, e.Site)
}

// Transient reports whether the fault models a retryable condition.
func (e *Error) Transient() bool { return e.IsTransient }

// IsTransient classifies an error chain: anything carrying a
// Transient() bool method (injected faults, future network errors) that
// reports true is safe to retry; everything else fails fast.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// WrapFetcher interposes fault injection on a shuffle fetcher. With a nil
// injector the fetcher is returned unchanged.
func WrapFetcher(inj *Injector, f shuffle.Fetcher) shuffle.Fetcher {
	if inj == nil {
		return f
	}
	return &faultyFetcher{inj: inj, next: f}
}

type faultyFetcher struct {
	inj  *Injector
	next shuffle.Fetcher
}

// Fetch injects before delegating: error faults drop the request (the token
// does not advance, so a retry re-delivers the same pages — the protocol's
// idempotency), delay faults stall it, and partial faults truncate the
// response to the first ceil(n/2) pages with a correspondingly early next
// token, modelling a response cut off mid-stream.
func (f *faultyFetcher) Fetch(token int64, maxBytes int64, wait time.Duration) ([]*block.Page, int64, bool, error) {
	ft := f.inj.decide(SiteShuffleFetch)
	if ft != nil {
		switch ft.kind {
		case KindError:
			return nil, token, false, ft.err
		case KindDelay:
			time.Sleep(ft.delay)
		}
	}
	pages, next, done, err := f.next.Fetch(token, maxBytes, wait)
	if err != nil || ft == nil || ft.kind != KindPartial || len(pages) == 0 {
		return pages, next, done, err
	}
	keep := (len(pages) + 1) / 2
	if keep == len(pages) {
		return pages, next, done, nil
	}
	// Tokens number pages sequentially from the consumer's ack point, so
	// delivering k of n pages moves the token back by n-k.
	return pages[:keep], next - int64(len(pages)-keep), false, nil
}

// WrapSplitSource interposes fault injection on split enumeration. Faults
// fire before NextBatch touches the underlying source, so a retry after an
// injected error observes unchanged enumeration state. Without a rule at
// SiteConnectorNextBatch the source is returned as it is, so a list of
// splits in hand stays visible to connector.Listed.
func WrapSplitSource(inj *Injector, src connector.SplitSource) connector.SplitSource {
	if !inj.has(SiteConnectorNextBatch) {
		return src
	}
	return &faultySplitSource{inj: inj, next: src}
}

type faultySplitSource struct {
	inj  *Injector
	next connector.SplitSource
}

func (s *faultySplitSource) NextBatch(max int) (connector.SplitBatch, error) {
	if err := s.inj.Err(SiteConnectorNextBatch); err != nil {
		return connector.SplitBatch{}, err
	}
	return s.next.NextBatch(max)
}

func (s *faultySplitSource) Close() { s.next.Close() }
