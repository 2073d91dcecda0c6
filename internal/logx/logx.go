// Package logx is BlastFunction's structured, leveled logger — the third
// observability pillar next to internal/metrics (series) and
// internal/flightrec (task milestones). It is dependency-free by design:
// events are plain structs with a component, a message, key/value string
// fields and an optional trace ID borrowed from internal/obs, recorded
// into a bounded in-memory ring that each process serves at /debug/logs.
// A nil *Logger is valid everywhere and reduces every call to one nil
// check, the same contract obs.Tracer gives the RPC hot path.
package logx

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"blastfunction/internal/obs"
)

// Level orders event severities. The ring records every level; sinks
// usually gate at LevelInfo.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level in the fixed-width upper-case form used by
// the text format.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return "LEVEL(" + strconv.Itoa(int(l)) + ")"
	}
}

// ParseLevel accepts the String form, case-insensitively.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}

// MarshalJSON renders the level as its lower-case name.
func (l Level) MarshalJSON() ([]byte, error) {
	return []byte(`"` + strings.ToLower(l.String()) + `"`), nil
}

// UnmarshalJSON accepts the name form.
func (l *Level) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	v, err := ParseLevel(s)
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// Field is one key/value pair attached to an event. Values are
// stringified at log time so the ring holds no live references.
type Field struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Event is one structured log record. Trace, when set, ties the event to
// the distributed trace of the task that caused it, so
// `blastctl logs -trace <id>` and `blastctl trace <id>` describe the
// same incident from two angles.
type Event struct {
	Time      time.Time   `json:"time"`
	Level     Level       `json:"level"`
	Component string      `json:"component"`
	Msg       string      `json:"msg"`
	Trace     obs.TraceID `json:"trace,omitempty"`
	Fields    []Field     `json:"fields,omitempty"`
	// Proc names the recording process ("manager/fpga-A") and Seq is its
	// ring-assigned sequence number — together the deterministic tie-break
	// when Merge interleaves rings whose clocks collide on a timestamp.
	Proc string `json:"proc,omitempty"`
	Seq  uint64 `json:"seq,omitempty"`
}

// Format renders the event as one grep-friendly text line:
//
//	2006-01-02T15:04:05.000Z INFO  manager: board reconfigured bitstream=copy trace=4bf9…
func (e Event) Format() string {
	var b strings.Builder
	b.WriteString(e.Time.Format("2006-01-02T15:04:05.000Z07:00"))
	b.WriteByte(' ')
	lv := e.Level.String()
	b.WriteString(lv)
	for i := len(lv); i < 5; i++ {
		b.WriteByte(' ')
	}
	b.WriteByte(' ')
	if e.Component != "" {
		b.WriteString(e.Component)
		b.WriteString(": ")
	}
	b.WriteString(e.Msg)
	for _, f := range e.Fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(f.Value))
	}
	if e.Trace != 0 {
		b.WriteString(" trace=")
		b.WriteString(e.Trace.String())
	}
	return b.String()
}

func quoteIfNeeded(v string) string {
	if strings.ContainsAny(v, " \t\n\"") || v == "" {
		return strconv.Quote(v)
	}
	return v
}

// Config configures a logger root. The zero value records every level
// into a default-sized ring with no sink.
type Config struct {
	// Component names the subsystem; Named derives children.
	Component string
	// RingSize bounds the in-memory ring (default 4096 events).
	RingSize int
	// Sink, when non-nil, receives a copy of every recorded event at or
	// above SinkLevel — typically TextSink(os.Stderr) in binaries or a
	// t.Logf adapter in tests.
	Sink func(Event)
	// SinkLevel gates the sink only: the ring keeps every event, so
	// /debug/logs retains debug events even when the sink stays quiet.
	SinkLevel Level
	// Now is the injectable clock (default time.Now).
	Now func() time.Time
	// Process stamps every event with the recording process's identity
	// (e.g. "manager/fpga-A"); defaults to Component. Merge uses it to
	// order same-timestamp events from different rings deterministically.
	Process string
}

// core is the shared state behind a family of derived loggers: one ring,
// one sink, one clock per process, so /debug/logs serves the merged view
// of every component in the binary.
type core struct {
	sinkMin Level
	sink    func(Event)
	now     func() time.Time
	proc    string
	mu      sync.Mutex
	size    int     // ring capacity
	buf     []Event // grows to size on demand, then wraps: an idle logger holds no ring
	next    int     // oldest slot once len(buf) == size
	seq     uint64
}

// Logger records structured events. Methods on a nil *Logger are no-ops,
// so call sites never guard.
type Logger struct {
	core      *core
	component string
	trace     obs.TraceID
	fields    []Field
}

// New builds a root logger from cfg.
func New(cfg Config) *Logger {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Process == "" {
		cfg.Process = cfg.Component
	}
	return &Logger{
		core: &core{
			sinkMin: cfg.SinkLevel,
			sink:    cfg.Sink,
			now:     cfg.Now,
			proc:    cfg.Process,
			size:    cfg.RingSize,
		},
		component: cfg.Component,
	}
}

// Default returns the production logger used when a component is given
// none: full ring, Info-and-above mirrored to stderr.
func Default(component string) *Logger {
	return New(Config{
		Component: component,
		Sink:      TextSink(os.Stderr),
		SinkLevel: LevelInfo,
	})
}

// NewLogf adapts a printf-style function (typically testing.T.Logf) into
// a logger: every event is rendered through Format and forwarded.
func NewLogf(component string, f func(format string, args ...any)) *Logger {
	return New(Config{
		Component: component,
		Sink:      func(ev Event) { f("%s", ev.Format()) },
	})
}

// TextSink returns a sink that writes one Format line per event to w,
// serialized by an internal mutex.
func TextSink(w io.Writer) func(Event) {
	var mu sync.Mutex
	return func(ev Event) {
		line := ev.Format() + "\n"
		mu.Lock()
		io.WriteString(w, line)
		mu.Unlock()
	}
}

// Named derives a logger for a sub-component sharing this logger's ring,
// sink and clock.
func (l *Logger) Named(component string) *Logger {
	if l == nil {
		return nil
	}
	d := *l
	d.component = component
	return &d
}

// Component reports the logger's component name.
func (l *Logger) Component() string {
	if l == nil {
		return ""
	}
	return l.component
}

// With derives a logger whose events always carry the given key/value
// pairs (same kv convention as the log methods).
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	d := *l
	d.trace, d.fields = appendKV(l.trace, l.fields, kv)
	return &d
}

// Debug records a debug event. kv alternates keys (string) and values
// (any); a value of type obs.TraceID sets the event's trace ID instead of
// becoming a field.
func (l *Logger) Debug(msg string, kv ...any) { l.Log(LevelDebug, msg, kv...) }

// Info records an informational event.
func (l *Logger) Info(msg string, kv ...any) { l.Log(LevelInfo, msg, kv...) }

// Warn records a warning event.
func (l *Logger) Warn(msg string, kv ...any) { l.Log(LevelWarn, msg, kv...) }

// Error records an error event.
func (l *Logger) Error(msg string, kv ...any) { l.Log(LevelError, msg, kv...) }

// Log records an event at an explicit level.
func (l *Logger) Log(lv Level, msg string, kv ...any) {
	if l == nil || l.core == nil {
		return
	}
	c := l.core
	ev := Event{
		Time:      c.now(),
		Level:     lv,
		Component: l.component,
		Msg:       msg,
		Trace:     l.trace,
		Fields:    l.fields,
		Proc:      c.proc,
	}
	if len(kv) > 0 {
		ev.Trace, ev.Fields = appendKV(l.trace, l.fields, kv)
	}

	c.mu.Lock()
	c.seq++
	ev.Seq = c.seq
	if len(c.buf) < c.size {
		c.buf = append(c.buf, ev)
	} else {
		c.buf[c.next] = ev
		c.next = (c.next + 1) % c.size
	}
	c.mu.Unlock()

	if c.sink != nil && lv >= c.sinkMin {
		c.sink(ev)
	}
}

// appendKV returns base extended by the alternating key/value arguments,
// with a trace ID diverted to the correlation slot. A trailing key without a
// value (or a non-string key) is recorded as a malformed field rather than
// dropped. It allocates twice however many fields there are (up to eight,
// up to 128 bytes of formatted scalars): the field slice, sized once, and
// one string that every formatted value is a substring of.
func appendKV(trace obs.TraceID, base []Field, kv []any) (obs.TraceID, []Field) {
	fields := make([]Field, len(base), len(base)+(len(kv)+1)/2)
	copy(fields, base)
	var (
		textArr [128]byte
		endArr  [8]int
	)
	text, ends := textArr[:0], endArr[:0] // ends[j]: where new field j's formatted value stops in text
	for i := 0; i < len(kv); i += 2 {
		key, v := "!MISSING-VALUE", kv[i]
		if i+1 < len(kv) {
			k, ok := kv[i].(string)
			if !ok {
				key = "!BAD-KEY"
			} else {
				key, v = k, kv[i+1]
				if id, ok := v.(obs.TraceID); ok {
					if id != 0 {
						trace = id
					}
					continue
				}
			}
		}
		var own string
		text, own = appendValue(text, v)
		fields = append(fields, Field{Key: key, Value: own})
		ends = append(ends, len(text))
	}
	if len(text) > 0 {
		all, start := string(text), 0
		for j, end := range ends {
			if end > start {
				fields[len(base)+j].Value = all[start:end]
				start = end
			}
		}
	}
	return trace, fields
}

// appendValue stringifies v: a scalar is appended to b, a value that is or
// brings its own string is returned instead.
func appendValue(b []byte, v any) ([]byte, string) {
	switch x := v.(type) {
	case string:
		return b, x
	case nil:
		return b, "<nil>"
	case error:
		return b, x.Error()
	case int:
		return strconv.AppendInt(b, int64(x), 10), ""
	case int64:
		return strconv.AppendInt(b, x, 10), ""
	case uint64:
		return strconv.AppendUint(b, x, 10), ""
	case uint32:
		return strconv.AppendUint(b, uint64(x), 10), ""
	case bool:
		return strconv.AppendBool(b, x), ""
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64), ""
	case time.Duration:
		// String is inlined here, so its result never leaves the stack.
		return append(b, x.String()...), ""
	case fmt.Stringer:
		return b, x.String()
	default:
		return b, fmt.Sprint(v)
	}
}

// Tail returns the retained events, oldest first.
func (l *Logger) Tail() []Event {
	if l == nil || l.core == nil {
		return nil
	}
	c := l.core
	c.mu.Lock()
	defer c.mu.Unlock()
	// next stays 0 until the ring is full, so this is oldest-first either way.
	var out []Event
	out = append(out, c.buf[c.next:]...)
	return append(out, c.buf[:c.next]...)
}
