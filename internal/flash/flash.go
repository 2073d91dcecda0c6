// Package flash is the bitstream lifecycle service: a job queue that
// serializes board reprogramming, batches concurrent demand for the same
// bitstream into one flash window, and keeps a durable history of every
// flash so operators can answer "what was flashed where, when, and why".
//
// Reconfiguration is the most expensive control operation in the system —
// the modelled penalty is seconds while every other call is micro- to
// milliseconds — so it is treated as a first-class scheduled operation
// rather than an inline side effect of an allocation:
//
//   - one active flash per board: jobs on the same board run FIFO within
//     priority, never concurrently;
//   - coalescing: a request for a (board, bitstream) pair that already has
//     an open job attaches to it as a follower and shares its outcome —
//     this is the batching that amortizes the reconfiguration delay across
//     queued demand;
//   - durable history: every terminal job is appended to a JSONL file that
//     is reloaded on restart, so the flash ledger survives the registry;
//   - observability: /debug/flash serves job status, queue depths and
//     per-board history; bf_flash_* metrics export queue wait, flash
//     duration, batched requesters and drained sessions.
//
// The service runs in two modes. With a Flasher configured (the Device
// Manager embeds one around Board.Configure) jobs execute on a per-board
// worker as soon as they reach the head of the queue. Without a Flasher
// (the Accelerators Registry's planning mode) a job that reaches the head
// opens a *flash window* and stays active until Complete is called — the
// registry completes it when the owning client's Build call passes the
// reconfiguration gate. Drain statistics (sessions migrated off the board
// before reprogramming) are attributed to the open job via RecordDrain.
package flash

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"blastfunction/internal/logx"
	"blastfunction/internal/metrics"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: waiting behind another flash on the same board.
	StateQueued State = "queued"
	// StateFlashing: the job is active — executing under a Flasher, or an
	// open flash window awaiting the programming client in planning mode.
	StateFlashing State = "flashing"
	// StateDone: the flash completed.
	StateDone State = "done"
	// StateFailed: the flash errored; Error carries the cause.
	StateFailed State = "failed"
)

// Job is one flash of one board, the unit the history records.
type Job struct {
	ID          uint64 `json:"id"`
	Board       string `json:"board"`
	Bitstream   string `json:"bitstream"`
	Accelerator string `json:"accelerator,omitempty"`
	// Requester identifies who asked first (client or instance name);
	// BatchedRequesters lists followers that coalesced onto this job.
	Requester         string   `json:"requester"`
	BatchedRequesters []string `json:"batched_requesters,omitempty"`
	Priority          int      `json:"priority,omitempty"`
	State             State    `json:"state"`

	Queued   time.Time `json:"queued"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`

	// WaitSeconds is queue wait (Queued→Started); FlashSeconds the
	// modelled reprogramming time the board was blocked for.
	WaitSeconds  float64 `json:"wait_seconds,omitempty"`
	FlashSeconds float64 `json:"flash_seconds,omitempty"`
	// DrainedSessions counts instances migrated off the board before this
	// flash (the create-before-delete controller migration).
	DrainedSessions int    `json:"drained_sessions,omitempty"`
	Error           string `json:"error,omitempty"`
}

// Request submits one flash demand.
type Request struct {
	Board       string
	Bitstream   string
	Accelerator string
	Requester   string
	// Priority orders jobs within a board: higher first, FIFO within a
	// priority level.
	Priority int
	// Binary is the programming payload handed to the Flasher; planning
	// mode ignores it.
	Binary []byte
}

// Flasher executes one flash on the physical (simulated) board and
// returns the modelled duration the board was blocked. It is called from
// the board's worker goroutine, never concurrently for the same board.
type Flasher func(job Job, binary []byte) (time.Duration, error)

// Config parameterizes the service.
type Config struct {
	// Flasher executes jobs; nil selects planning mode (external
	// completion via Complete).
	Flasher Flasher
	// HistoryPath is the append-only JSONL flash ledger, reloaded on
	// restart; empty keeps history in memory only.
	HistoryPath string
	// Metrics, when set, receives the bf_flash_* series under Labels.
	Metrics *metrics.Registry
	Labels  metrics.Labels
	// Log receives flash lifecycle events; nil logs nothing.
	Log *logx.Logger
	// Now is the clock (test hook); nil selects time.Now.
	Now func() time.Time
}

// jobState is a live job plus its non-serialized runtime attachments.
type jobState struct {
	Job
	binary []byte
	err    error
	done   chan struct{}
}

// boardQueue serializes one board's flashes.
type boardQueue struct {
	active  *jobState
	queue   []*jobState
	working bool // a worker goroutine owns this board (Flasher mode)
}

// Service is the bitstream lifecycle service.
type Service struct {
	cfg Config
	now func() time.Time

	mu      sync.Mutex
	boards  map[string]*boardQueue
	history map[string][]Job
	nextID  uint64
	closed  bool
	file    *os.File
	wg      sync.WaitGroup

	metricsOn bool
	hWait     metrics.Histogram
	hDur      metrics.Histogram
	cDone     metrics.Counter
	cFailed   metrics.Counter
	cBatched  metrics.Counter
	cDrained  metrics.Counter
	gDepth    metrics.Gauge
}

// New creates the service, reloading any history at HistoryPath.
func New(cfg Config) (*Service, error) {
	s := &Service{
		cfg:     cfg,
		now:     cfg.Now,
		boards:  make(map[string]*boardQueue),
		history: make(map[string][]Job),
	}
	if s.now == nil {
		s.now = time.Now
	}
	if reg := cfg.Metrics; reg != nil {
		s.metricsOn = true
		lbl := cfg.Labels
		s.hWait = reg.Histogram("bf_flash_queue_wait_seconds", "Queue wait of executed flash jobs.", lbl, nil)
		s.hDur = reg.Histogram("bf_flash_duration_seconds", "Modelled board reprogramming time per flash.", lbl, nil)
		s.cDone = reg.Counter("bf_flash_jobs_done_total", "Flash jobs that completed.", lbl)
		s.cFailed = reg.Counter("bf_flash_jobs_failed_total", "Flash jobs that errored.", lbl)
		s.cBatched = reg.Counter("bf_flash_batched_requesters_total", "Requesters that coalesced onto an already-open flash job.", lbl)
		s.cDrained = reg.Counter("bf_flash_drained_sessions_total", "Sessions migrated off a board ahead of a flash.", lbl)
		s.gDepth = reg.Gauge("bf_flash_queue_depth", "Flash jobs queued or active across all boards.", lbl)
	}
	if cfg.HistoryPath != "" {
		if err := s.loadHistory(cfg.HistoryPath); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(cfg.HistoryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("flash: open history: %w", err)
		}
		s.file = f
	}
	return s, nil
}

// loadHistory replays the JSONL ledger into the in-memory rings and
// continues job IDs past the highest recorded one. Unparseable lines are
// skipped: a torn final write must not brick the service.
func (s *Service) loadHistory(path string) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("flash: read history: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var j Job
		if err := json.Unmarshal(line, &j); err != nil || j.Board == "" {
			continue
		}
		s.appendHistoryLocked(j)
		if j.ID > s.nextID {
			s.nextID = j.ID
		}
	}
	return sc.Err()
}

// historyLimit bounds the per-board history entries served from
// /debug/flash; the file itself is never truncated.
const historyLimit = 64

// appendHistoryLocked records a terminal job in the board's bounded ring.
func (s *Service) appendHistoryLocked(j Job) {
	h := append(s.history[j.Board], j)
	if over := len(h) - historyLimit; over > 0 {
		h = h[over:]
	}
	s.history[j.Board] = h
}

// Ticket is a submitted job's handle. Coalesced submissions share one
// ticket outcome.
type Ticket struct {
	s   *Service
	job *jobState
}

// Wait blocks until the job reaches a terminal state (or ctx expires) and
// returns the flash error, if any.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.job.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.job.err
}

// Job snapshots the job's current state.
func (t *Ticket) Job() Job {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.job.Job
}

// Submit enqueues a flash. A request matching an open (non-terminal) job
// for the same board and bitstream coalesces onto it instead of queueing
// a second flash — the returned ticket then tracks the shared job.
func (s *Service) Submit(req Request) *Ticket {
	s.mu.Lock()
	if s.closed {
		js := &jobState{
			Job: Job{Board: req.Board, Bitstream: req.Bitstream, Requester: req.Requester,
				State: StateFailed, Error: "flash service closed", Queued: s.now()},
			err:  fmt.Errorf("flash: service closed"),
			done: make(chan struct{}),
		}
		close(js.done)
		s.mu.Unlock()
		return &Ticket{s: s, job: js}
	}
	bq := s.boards[req.Board]
	if bq == nil {
		bq = &boardQueue{}
		s.boards[req.Board] = bq
	}
	// Coalesce: attach to an open job for the same bitstream.
	if js := bq.openJob(req.Bitstream); js != nil {
		js.BatchedRequesters = append(js.BatchedRequesters, req.Requester)
		if s.metricsOn {
			s.cBatched.Inc()
		}
		s.mu.Unlock()
		s.cfg.Log.Debug("flash request coalesced", "board", req.Board,
			"bitstream", req.Bitstream, "requester", req.Requester, "job", js.ID)
		return &Ticket{s: s, job: js}
	}
	s.nextID++
	js := &jobState{
		Job: Job{
			ID: s.nextID, Board: req.Board, Bitstream: req.Bitstream,
			Accelerator: req.Accelerator, Requester: req.Requester,
			Priority: req.Priority, State: StateQueued, Queued: s.now(),
		},
		binary: req.Binary,
		done:   make(chan struct{}),
	}
	bq.queue = append(bq.queue, js)
	s.syncDepthLocked()
	s.promoteLocked(req.Board, bq)
	s.mu.Unlock()
	s.cfg.Log.Info("flash job queued", "board", req.Board,
		"bitstream", req.Bitstream, "requester", req.Requester, "job", js.ID)
	return &Ticket{s: s, job: js}
}

// openJob returns the board's active or queued job for bitstream, if any.
func (bq *boardQueue) openJob(bitstream string) *jobState {
	if bq.active != nil && bq.active.Bitstream == bitstream {
		return bq.active
	}
	for _, js := range bq.queue {
		if js.Bitstream == bitstream {
			return js
		}
	}
	return nil
}

// popLocked removes and returns the board's next job: highest priority
// first, FIFO (submission order) within a priority level.
func (bq *boardQueue) popLocked() *jobState {
	if len(bq.queue) == 0 {
		return nil
	}
	best := 0
	for i, js := range bq.queue {
		if js.Priority > bq.queue[best].Priority {
			best = i
		}
	}
	js := bq.queue[best]
	bq.queue = append(bq.queue[:best], bq.queue[best+1:]...)
	return js
}

// promoteLocked advances the board's queue: in planning mode it opens the
// next flash window; in Flasher mode it starts the board's worker if one
// is not already running.
func (s *Service) promoteLocked(board string, bq *boardQueue) {
	if s.cfg.Flasher == nil {
		if bq.active != nil {
			return
		}
		js := bq.popLocked()
		if js == nil {
			return
		}
		bq.active = js
		js.State = StateFlashing
		js.Started = s.now()
		js.WaitSeconds = js.Started.Sub(js.Queued).Seconds()
		if s.metricsOn {
			s.hWait.Observe(js.WaitSeconds)
		}
		return
	}
	if bq.working {
		return
	}
	bq.working = true
	s.wg.Add(1)
	go s.boardWorker(board, bq)
}

// boardWorker drains one board's queue, one flash at a time. It exits when
// the queue empties; the next Submit restarts it.
func (s *Service) boardWorker(board string, bq *boardQueue) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		js := bq.popLocked()
		if js == nil {
			bq.working = false
			s.mu.Unlock()
			return
		}
		bq.active = js
		js.State = StateFlashing
		js.Started = s.now()
		js.WaitSeconds = js.Started.Sub(js.Queued).Seconds()
		if s.metricsOn {
			s.hWait.Observe(js.WaitSeconds)
		}
		job, binary := js.Job, js.binary
		s.mu.Unlock()

		d, err := s.cfg.Flasher(job, binary)

		s.mu.Lock()
		s.finishLocked(js, d, err)
		bq.active = nil
		s.mu.Unlock()
	}
}

// finishLocked moves a job to its terminal state, records history and
// metrics, and wakes every waiter.
func (s *Service) finishLocked(js *jobState, d time.Duration, err error) {
	js.Finished = s.now()
	js.FlashSeconds = d.Seconds()
	js.binary = nil
	if err != nil {
		js.State = StateFailed
		js.Error = err.Error()
		js.err = err
		if s.metricsOn {
			s.cFailed.Inc()
		}
		s.cfg.Log.Warn("flash job failed", "board", js.Board, "bitstream", js.Bitstream,
			"job", js.ID, "err", err)
	} else {
		js.State = StateDone
		if s.metricsOn {
			s.cDone.Inc()
		}
		if s.metricsOn {
			s.hDur.Observe(js.FlashSeconds)
		}
		s.cfg.Log.Info("flash job done", "board", js.Board, "bitstream", js.Bitstream,
			"job", js.ID, "batched", len(js.BatchedRequesters),
			"wait_s", js.WaitSeconds, "flash_s", js.FlashSeconds)
	}
	s.appendHistoryLocked(js.Job)
	s.persistLocked(js.Job)
	s.syncDepthLocked()
	close(js.done)
}

// persistLocked appends a terminal job to the JSONL ledger.
func (s *Service) persistLocked(j Job) {
	if s.file == nil {
		return
	}
	line, err := json.Marshal(j)
	if err != nil {
		return
	}
	if _, err := s.file.Write(append(line, '\n')); err != nil {
		s.cfg.Log.Warn("flash history write failed", "path", s.cfg.HistoryPath, "err", err)
	}
}

func (s *Service) syncDepthLocked() {
	if !s.metricsOn {
		return
	}
	depth := 0
	for _, bq := range s.boards {
		depth += len(bq.queue)
		if bq.active != nil {
			depth++
		}
	}
	s.gDepth.Set(float64(depth))
}

// Complete finalizes a board's open flash window in planning mode: the
// active job whose bitstream matches is marked done (or failed), and the
// next queued job, if any, opens the following window. It reports whether
// a job was completed. flashDur is the observed reprogramming time, zero
// when unknown.
func (s *Service) Complete(board, bitstream string, flashDur time.Duration, err error) bool {
	s.mu.Lock()
	bq := s.boards[board]
	if bq == nil {
		s.mu.Unlock()
		return false
	}
	js := bq.active
	if js == nil || js.Bitstream != bitstream {
		// A queued job may match when windows complete out of order (the
		// client raced the active window's owner); finish it in place.
		for i, q := range bq.queue {
			if q.Bitstream == bitstream {
				bq.queue = append(bq.queue[:i], bq.queue[i+1:]...)
				q.State = StateFlashing
				q.Started = s.now()
				q.WaitSeconds = q.Started.Sub(q.Queued).Seconds()
				if s.metricsOn {
					s.hWait.Observe(q.WaitSeconds)
				}
				s.finishLocked(q, flashDur, err)
				s.promoteLocked(board, bq)
				s.mu.Unlock()
				return true
			}
		}
		s.mu.Unlock()
		return false
	}
	s.finishLocked(js, flashDur, err)
	bq.active = nil
	s.promoteLocked(board, bq)
	s.mu.Unlock()
	return true
}

// RecordDrain attributes n drained (migrated) sessions to the board's
// open flash job.
func (s *Service) RecordDrain(board string, n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	if bq := s.boards[board]; bq != nil && bq.active != nil {
		bq.active.DrainedSessions += n
	}
	s.mu.Unlock()
	if s.metricsOn {
		s.cDrained.Add(float64(n))
	}
}

// Jobs snapshots every live (queued or active) job, ordered by ID.
func (s *Service) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Job
	for _, bq := range s.boards {
		if bq.active != nil {
			out = append(out, bq.active.Job)
		}
		for _, js := range bq.queue {
			out = append(out, js.Job)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// History returns the board's retained terminal jobs, oldest first; an
// empty board name merges every board's history ordered by ID.
func (s *Service) History(board string) []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if board != "" {
		return append([]Job(nil), s.history[board]...)
	}
	var out []Job
	for _, h := range s.history {
		out = append(out, h...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// QueueDepths reports per-board live job counts (active included).
func (s *Service) QueueDepths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for b, bq := range s.boards {
		n := len(bq.queue)
		if bq.active != nil {
			n++
		}
		if n > 0 {
			out[b] = n
		}
	}
	return out
}

// Close flushes the ledger and stops accepting jobs. Flasher-mode workers
// finish their in-flight job first; queued jobs past that fail on their
// next promotion... they are failed immediately here so waiters unblock.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Fail every queued job so no Wait blocks forever. Active jobs are
	// left to finish: a flash in progress cannot be interrupted.
	for _, bq := range s.boards {
		for _, js := range bq.queue {
			s.finishLocked(js, 0, fmt.Errorf("flash: service closed"))
		}
		bq.queue = nil
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.file != nil {
		err := s.file.Close()
		s.file = nil
		return err
	}
	return nil
}

// debugPayload is the /debug/flash response shape.
type debugPayload struct {
	Jobs    []Job            `json:"jobs"`
	Queues  map[string]int   `json:"queue_depths"`
	History map[string][]Job `json:"history"`
}

// Handler serves the flash state as JSON at /debug/flash. Query
// parameters: board filters to one board, limit bounds history entries
// per board.
func (s *Service) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		board := r.URL.Query().Get("board")
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			limit, _ = strconv.Atoi(v)
		}
		p := debugPayload{Queues: s.QueueDepths(), History: make(map[string][]Job)}
		for _, j := range s.Jobs() {
			if board == "" || j.Board == board {
				p.Jobs = append(p.Jobs, j)
			}
		}
		s.mu.Lock()
		for b, h := range s.history {
			if board != "" && b != board {
				continue
			}
			if limit > 0 && len(h) > limit {
				h = h[len(h)-limit:]
			}
			p.History[b] = append([]Job(nil), h...)
		}
		s.mu.Unlock()
		if board != "" {
			for b := range p.Queues {
				if b != board {
					delete(p.Queues, b)
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p)
	})
}
