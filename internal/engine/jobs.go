package engine

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"
)

// ErrTooManyJobs reports a Submit refused because the table is already
// full of unfinished jobs — the backpressure that keeps a client
// looping cheap async submissions from pinning unbounded goroutines.
var ErrTooManyJobs = errors.New("engine: too many active jobs; retry after some finish")

// JobState is the lifecycle position of an asynchronous release job.
type JobState string

const (
	// JobQueued: accepted, not yet started.
	JobQueued JobState = "queued"
	// JobRunning: the release request is executing (it may itself be
	// waiting on a compute slot or coalesced onto another computation).
	JobRunning JobState = "running"
	// JobDone: finished successfully; Key addresses the release.
	JobDone JobState = "done"
	// JobFailed: finished with an error, recorded in Err.
	JobFailed JobState = "failed"
)

// Finished reports whether the job has reached a terminal state.
func (s JobState) Finished() bool { return s == JobDone || s == JobFailed }

// Job is a point-in-time snapshot of one asynchronous release.
type Job struct {
	// ID addresses the job (GET /v1/jobs/{id} in hcoc-serve).
	ID string
	// State is the lifecycle position at snapshot time.
	State JobState
	// Key addresses the completed release when State is JobDone.
	Key string
	// Err is the failure message when State is JobFailed.
	Err string
	// How the release request was satisfied (meaningful when done).
	CacheHit, StoreHit, Deduped bool
	// Duration is the wall time of the computation that produced the
	// release (see Result.Duration).
	Duration time.Duration
	// Created, Started and Finished timestamp the lifecycle; zero when
	// not yet reached.
	Created, Started, Finished time.Time
}

// DefaultMaxJobs bounds the job table when NewJobs is given 0.
const DefaultMaxJobs = 1024

// Jobs tracks asynchronous release submissions. Finished jobs are
// retained (bounded, oldest-first eviction) so clients can poll a
// completed job's outcome; running jobs are never evicted — instead,
// new submissions are refused with ErrTooManyJobs once unfinished jobs
// alone fill the table. Safe for concurrent use.
type Jobs struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for bounded retention
	max    int
	active int // unfinished jobs; bounded by max
}

// NewJobs creates a job table retaining at most max entries (0 means
// DefaultMaxJobs).
func NewJobs(max int) *Jobs {
	if max <= 0 {
		max = DefaultMaxJobs
	}
	return &Jobs{jobs: make(map[string]*Job), max: max}
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("engine: reading random job id: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Submit registers a job and starts run in its own goroutine, detached
// from any request context. It returns the queued job's snapshot (poll
// Get for progress), or ErrTooManyJobs when unfinished jobs already
// fill the table.
func (js *Jobs) Submit(run func() (Result, error)) (Job, error) {
	j := &Job{ID: newJobID(), State: JobQueued, Created: time.Now()}
	js.mu.Lock()
	if js.active >= js.max {
		js.mu.Unlock()
		return Job{}, ErrTooManyJobs
	}
	js.active++
	js.jobs[j.ID] = j
	js.order = append(js.order, j.ID)
	js.evictLocked()
	snap := *j
	js.mu.Unlock()

	go func() {
		js.mu.Lock()
		j.State = JobRunning
		j.Started = time.Now()
		js.mu.Unlock()

		r, err := run()

		js.mu.Lock()
		j.Finished = time.Now()
		if err != nil {
			j.State = JobFailed
			j.Err = err.Error()
		} else {
			j.State = JobDone
			j.Key = r.Key
			j.CacheHit = r.CacheHit
			j.StoreHit = r.StoreHit
			j.Deduped = r.Deduped
			j.Duration = r.Duration
		}
		js.active--
		js.mu.Unlock()
	}()
	return snap, nil
}

// evictLocked drops the oldest finished jobs until the table fits.
// Unfinished jobs are kept even over budget: a client must always be
// able to poll a job it was just told about.
func (js *Jobs) evictLocked() {
	for len(js.jobs) > js.max {
		victim := -1
		for i, id := range js.order {
			if js.jobs[id].State.Finished() {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		delete(js.jobs, js.order[victim])
		js.order = append(js.order[:victim], js.order[victim+1:]...)
	}
}

// Get returns a snapshot of the job, if it is still retained.
func (js *Jobs) Get(id string) (Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Len returns the number of retained jobs.
func (js *Jobs) Len() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return len(js.jobs)
}
