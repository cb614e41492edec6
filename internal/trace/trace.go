// Package trace provides lightweight, allocation-conscious event tracing
// for GoCast protocol runs. A bounded ring buffer records typed events
// (message sends, link changes, tree reparenting, deliveries); the buffer
// can be filtered and rendered for debugging protocol behaviour in both
// simulated and live deployments.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	KindSend Kind = iota + 1
	KindDeliver
	KindLinkUp
	KindLinkDown
	KindParentChange
	KindRootChange
	KindPull
	KindNote
)

func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindLinkUp:
		return "link-up"
	case KindLinkDown:
		return "link-down"
	case KindParentChange:
		return "parent"
	case KindRootChange:
		return "root"
	case KindPull:
		return "pull"
	case KindNote:
		return "note"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded protocol event.
type Event struct {
	At   time.Duration
	Kind Kind
	// Node is the event's subject; Peer the counterparty (or -1).
	Node, Peer int32
	// Detail is a short free-form annotation.
	Detail string
	// A and B are the event's raw arguments. A hot-path recorder stores
	// them with a Render function instead of a formatted Detail; the
	// Buffer fills Detail from them only when events are read, so the
	// formatting cost is paid per read, not per recorded event.
	A, B   int64
	Render func(a, b int64) string
}

// rendered returns e with Detail filled from its raw arguments.
func (e Event) rendered() Event {
	if e.Detail == "" && e.Render != nil {
		e.Detail = e.Render(e.A, e.B)
	}
	return e
}

func (e Event) String() string {
	e = e.rendered()
	if e.Peer >= 0 {
		return fmt.Sprintf("%12v %-9s node=%d peer=%d %s", e.At, e.Kind, e.Node, e.Peer, e.Detail)
	}
	return fmt.Sprintf("%12v %-9s node=%d %s", e.At, e.Kind, e.Node, e.Detail)
}

// Buffer is a bounded, concurrency-safe ring of events. The zero value is
// unusable; use NewBuffer.
type Buffer struct {
	mu      sync.Mutex
	events  []Event
	next    int
	wrapped bool
	dropped uint64
	enabled bool
}

// NewBuffer returns a ring holding up to capacity events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Buffer{events: make([]Event, capacity), enabled: true}
}

// SetEnabled toggles recording (cheap global gate for hot paths).
func (b *Buffer) SetEnabled(on bool) {
	b.mu.Lock()
	b.enabled = on
	b.mu.Unlock()
}

// Add records an event, evicting the oldest when full.
func (b *Buffer) Add(e Event) {
	b.mu.Lock()
	if !b.enabled {
		b.mu.Unlock()
		return
	}
	if b.wrapped {
		b.dropped++
	}
	b.events[b.next] = e
	b.next++
	if b.next == len(b.events) {
		b.next = 0
		b.wrapped = true
	}
	b.mu.Unlock()
}

// Addf records a note-style event with formatted detail.
func (b *Buffer) Addf(at time.Duration, kind Kind, node, peer int32, format string, args ...any) {
	b.Add(Event{At: at, Kind: kind, Node: node, Peer: peer, Detail: fmt.Sprintf(format, args...)})
}

// Len returns how many events are currently buffered.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wrapped {
		return len(b.events)
	}
	return b.next
}

// Dropped returns how many events were evicted by wrap-around.
func (b *Buffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Snapshot returns the buffered events in chronological order, each with
// its Detail rendered.
func (b *Buffer) Snapshot() []Event {
	out := b.raw()
	for i := range out {
		out[i] = out[i].rendered()
	}
	return out
}

// raw copies the buffered events in chronological order without rendering
// them; the lock is held only for the copy.
func (b *Buffer) raw() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.wrapped {
		return append([]Event(nil), b.events[:b.next]...)
	}
	out := make([]Event, 0, len(b.events))
	out = append(out, b.events[b.next:]...)
	out = append(out, b.events[:b.next]...)
	return out
}

// Filter describes which events to keep when querying.
type Filter struct {
	// Kinds restricts to the given kinds (nil = all).
	Kinds []Kind
	// Node restricts to events whose subject or peer matches (<0 = all).
	Node int32
	// Since drops events before this time.
	Since time.Duration
}

func (f Filter) match(e Event) bool {
	if e.At < f.Since {
		return false
	}
	if f.Node >= 0 && e.Node != f.Node && e.Peer != f.Node {
		return false
	}
	if len(f.Kinds) == 0 {
		return true
	}
	for _, k := range f.Kinds {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Query returns the matching events in chronological order.
func (b *Buffer) Query(f Filter) []Event {
	var out []Event
	for _, e := range b.raw() {
		if f.match(e) {
			out = append(out, e.rendered())
		}
	}
	return out
}

// Dump writes matching events to w, one per line, with a summary footer.
func (b *Buffer) Dump(w io.Writer, f Filter) error {
	events := b.Query(f)
	for _, e := range events {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "-- %d events (%d evicted)\n", len(events), b.Dropped())
	return err
}

// Summary tallies buffered events per kind.
func (b *Buffer) Summary() string {
	counts := map[Kind]int{}
	for _, e := range b.raw() {
		counts[e.Kind]++
	}
	parts := make([]string, 0, len(counts))
	for k := KindSend; k <= KindNote; k++ {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
		}
	}
	return strings.Join(parts, " ")
}
