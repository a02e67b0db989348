package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"convexcache/internal/core"
	"convexcache/internal/costfn"
	"convexcache/internal/obs"
	"convexcache/internal/sim"
	"convexcache/internal/trace"
)

// Job states. queued -> running -> {done, failed, cancelled};
// failed/cancelled -> queued again via Resume.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobSpec describes one replay to run asynchronously. Exactly one of
// NewFast (checkpointable, the paper's algorithm) or NewPolicy must be set;
// both must return a fresh instance per call.
type JobSpec struct {
	// Label is the policy name for the result.
	Label string
	// Trace is the request sequence.
	Trace *trace.Trace
	// K is the cache size.
	K int
	// NewFast, when non-nil, selects the checkpointed runner: the job
	// snapshots every CheckpointEvery steps and resumes after cancellation
	// or a crash instead of restarting.
	NewFast func() *core.Fast
	// NewPolicy selects a plain (non-checkpointable) replay.
	NewPolicy func() sim.Policy
	// Costs are kept with the job so the result can be priced.
	Costs []costfn.Func
}

// JobStatus is the externally visible snapshot of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Policy is the spec's Label (the requested policy name).
	Policy string `json:"policy"`
	// Step is the replay progress; TotalSteps the trace length.
	Step       int `json:"step"`
	TotalSteps int `json:"total_steps"`
	// CheckpointStep is the step a resume would restart from (0 = none).
	CheckpointStep int `json:"checkpoint_step,omitempty"`
	// Resumes counts how many times the job was re-queued from a checkpoint.
	Resumes int `json:"resumes,omitempty"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
}

// job is the internal record.
type job struct {
	id   string
	spec JobSpec

	mu       sync.Mutex
	state    string
	step     int
	err      error
	result   *sim.Result
	cp       *Checkpoint
	resumes  int
	cancel   context.CancelFunc
	finished time.Time
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Policy:     j.spec.Label,
		Step:       j.step,
		TotalSteps: j.spec.Trace.Len(),
		Resumes:    j.resumes,
	}
	if j.cp != nil {
		st.CheckpointStep = j.cp.Step
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// JobsConfig tunes the job subsystem; the zero value selects the defaults.
type JobsConfig struct {
	// Workers is the worker-pool size; <= 0 selects 2.
	Workers int
	// MaxJobs bounds the job store (records, running or finished); <= 0
	// selects 256. When full, the oldest finished job is evicted; with no
	// evictable record, Submit sheds.
	MaxJobs int
	// CheckpointEvery is the checkpoint cadence in steps for checkpointable
	// jobs; <= 0 selects 65536.
	CheckpointEvery int
}

func (c JobsConfig) withDefaults() JobsConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1 << 16
	}
	return c
}

// Jobs runs replays asynchronously on a bounded worker pool so long work
// never holds an HTTP connection, and crashes (worker panics) degrade to a
// failed job with a retained checkpoint instead of a dead process.
type Jobs struct {
	cfg JobsConfig
	reg *obs.Registry

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // insertion order, for bounded-store eviction
	seq   atomic.Int64

	queue     chan *job
	startOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// ErrUnknownJob reports a job id with no record (possibly evicted).
var ErrUnknownJob = errors.New("resilience: unknown job id")

// NewJobs builds the subsystem; reg may be nil. Workers start lazily on the
// first Submit, so an idle instance costs no goroutines.
func NewJobs(cfg JobsConfig, reg *obs.Registry) *Jobs {
	cfg = cfg.withDefaults()
	// The queue buffer is 2*MaxJobs: a job cancelled while queued leaves a
	// stale channel entry behind (the worker skips it), and its Resume adds
	// a second one, so entries can briefly exceed live jobs.
	return &Jobs{
		cfg:    cfg,
		reg:    reg,
		jobs:   make(map[string]*job),
		queue:  make(chan *job, 2*cfg.MaxJobs),
		closed: make(chan struct{}),
	}
}

// Close cancels running jobs and stops the workers. Safe to call on an
// instance that never ran anything.
func (js *Jobs) Close() {
	js.startOnce.Do(func() {}) // ensure workers can never start after Close
	select {
	case <-js.closed:
		return
	default:
	}
	close(js.closed)
	js.mu.Lock()
	for _, j := range js.jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	js.mu.Unlock()
	js.wg.Wait()
}

func (js *Jobs) start() {
	js.startOnce.Do(func() {
		select {
		case <-js.closed:
			return
		default:
		}
		for w := 0; w < js.cfg.Workers; w++ {
			js.wg.Add(1)
			go func() {
				defer js.wg.Done()
				for {
					select {
					case <-js.closed:
						return
					case j := <-js.queue:
						js.run(j)
					}
				}
			}()
		}
	})
}

// Submit stores and enqueues a new job, returning its status. The store is
// bounded: if no finished job can be evicted to make room, Submit sheds
// with ReasonJobStoreFull.
func (js *Jobs) Submit(spec JobSpec) (JobStatus, error) {
	if spec.Trace == nil || spec.K <= 0 || (spec.NewFast == nil) == (spec.NewPolicy == nil) {
		return JobStatus{}, errors.New("resilience: job spec needs a trace, a positive K, and exactly one runner")
	}
	select {
	case <-js.closed:
		return JobStatus{}, errors.New("resilience: job subsystem closed")
	default:
	}
	j := &job{
		id:    fmt.Sprintf("job-%06d", js.seq.Add(1)),
		spec:  spec,
		state: JobQueued,
	}
	js.mu.Lock()
	if len(js.jobs) >= js.cfg.MaxJobs && !js.evictLocked() {
		js.mu.Unlock()
		countShed(js.reg, ReasonJobStoreFull)
		return JobStatus{}, &Shed{
			Reason:     ReasonJobStoreFull,
			RetryAfter: 5 * time.Second,
			Detail:     fmt.Sprintf("all %d job slots hold unfinished jobs", js.cfg.MaxJobs),
		}
	}
	js.jobs[j.id] = j
	js.order = append(js.order, j.id)
	js.mu.Unlock()
	js.start()
	js.count("resilience_jobs_submitted_total")
	js.queue <- j // buffer == MaxJobs, so never blocks while the store admits
	return j.status(), nil
}

// evictLocked drops the oldest finished job; reports whether a slot freed.
func (js *Jobs) evictLocked() bool {
	for i, id := range js.order {
		j := js.jobs[id]
		j.mu.Lock()
		finished := j.state == JobDone || j.state == JobFailed || j.state == JobCancelled
		j.mu.Unlock()
		if finished {
			delete(js.jobs, id)
			js.order = append(js.order[:i], js.order[i+1:]...)
			return true
		}
	}
	return false
}

// Status returns the job's current status.
func (js *Jobs) Status(id string) (JobStatus, error) {
	j, err := js.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// Result returns the finished job's Result and costs. The bool reports
// whether the job is done; a false return with nil error means "not yet".
func (js *Jobs) Result(id string) (sim.Result, []costfn.Func, bool, error) {
	j, err := js.get(id)
	if err != nil {
		return sim.Result{}, nil, false, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobDone || j.result == nil {
		return sim.Result{}, nil, false, nil
	}
	return *j.result, j.spec.Costs, true, nil
}

// Cancel stops a queued or running job; its checkpoint (if any) is kept so
// Resume can continue it. Cancelling a finished job is an error.
func (js *Jobs) Cancel(id string) (JobStatus, error) {
	j, err := js.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCancelled // the worker skips it when dequeued
		j.finished = time.Now()
	case JobRunning:
		if j.cancel != nil {
			j.cancel()
		}
		// The worker moves it to cancelled when RunCheckpointed returns.
	case JobCancelled:
		// Idempotent.
	default:
		st := j.state
		j.mu.Unlock()
		return JobStatus{}, fmt.Errorf("resilience: cannot cancel %s job %s", st, id)
	}
	j.mu.Unlock()
	return j.status(), nil
}

// Resume re-queues a cancelled or failed job; a checkpointable job restarts
// from its last checkpoint, others from scratch.
func (js *Jobs) Resume(id string) (JobStatus, error) {
	j, err := js.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	select {
	case <-js.closed:
		return JobStatus{}, errors.New("resilience: job subsystem closed")
	default:
	}
	j.mu.Lock()
	if j.state != JobCancelled && j.state != JobFailed {
		st := j.state
		j.mu.Unlock()
		return JobStatus{}, fmt.Errorf("resilience: cannot resume %s job %s", st, id)
	}
	j.state = JobQueued
	j.err = nil
	j.resumes++
	j.mu.Unlock()
	js.start()
	js.count("resilience_jobs_resumed_total")
	js.queue <- j
	return j.status(), nil
}

func (js *Jobs) get(id string) (*job, error) {
	js.mu.Lock()
	j, ok := js.jobs[id]
	js.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// run executes one dequeued job. A panicking replay is recovered into a
// failed job (checkpoint retained) — a crashed job must never take the
// worker, let alone the process, down with it.
func (js *Jobs) run(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.mu.Lock()
	if j.state != JobQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	j.state = JobRunning
	j.cancel = cancel
	from := j.cp
	j.mu.Unlock()
	js.gauge("resilience_jobs_running", 1)
	defer js.gauge("resilience_jobs_running", -1)

	defer func() {
		if p := recover(); p != nil {
			js.count("resilience_job_panics_total")
			js.finish(j, JobFailed, nil, fmt.Errorf("job crashed: %v", p))
		}
	}()

	var res sim.Result
	var err error
	if j.spec.NewFast != nil {
		res, err = RunCheckpointed(ctx, j.spec.Trace, j.spec.NewFast(), j.spec.K,
			js.cfg.CheckpointEvery,
			from,
			func(cp Checkpoint) {
				j.mu.Lock()
				j.cp = &cp
				j.mu.Unlock()
				js.count("resilience_job_checkpoints_total")
			},
			func(step int) {
				j.mu.Lock()
				j.step = step
				j.mu.Unlock()
			},
		)
	} else {
		res, err = sim.RunContext(ctx, j.spec.Trace, j.spec.NewPolicy(),
			sim.ConfigAt(j.spec.K).WithProgress(func(delta int) {
				j.mu.Lock()
				j.step += delta
				j.mu.Unlock()
			}))
	}
	switch {
	case err == nil:
		js.finish(j, JobDone, &res, nil)
	case errors.Is(err, context.Canceled):
		js.finish(j, JobCancelled, nil, nil)
	default:
		js.finish(j, JobFailed, nil, err)
	}
}

func (js *Jobs) finish(j *job, state string, res *sim.Result, err error) {
	// Count first: a caller that sees the terminal state through Status must
	// also see it counted.
	js.count(fmt.Sprintf("resilience_jobs_finished_total{state=%q}", state))
	j.mu.Lock()
	j.state = state
	j.result = res
	j.err = err
	j.cancel = nil
	j.finished = time.Now()
	if res != nil {
		j.step = res.Steps
	}
	j.mu.Unlock()
}

func (js *Jobs) count(name string) {
	if js.reg != nil {
		js.reg.Counter(name).Inc()
	}
}

func (js *Jobs) gauge(name string, delta int64) {
	if js.reg != nil {
		js.reg.Gauge(name).Add(delta)
	}
}
