package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"ssmdvfs/internal/faults"
	"ssmdvfs/internal/telemetry"
)

// Client-side fault-injection sites (armed via DialOptions.Faults).
const (
	// FaultClientDial fires per connection attempt (error kinds fail it).
	FaultClientDial = "client.dial"
	// FaultClientIO fires per request round-trip before the write (error
	// kinds poison the connection and trigger reconnect).
	FaultClientIO = "client.io"
)

// DialOptions configures connection and retry behaviour for a Client.
// The zero value reproduces the original Dial: one 5 s connection
// attempt, no retries.
type DialOptions struct {
	// Timeout bounds each individual connection attempt (default 5 s).
	Timeout time.Duration
	// Retries is how many times a failed connect or round-trip is retried
	// after the first attempt, reconnecting between attempts (default 0:
	// fail fast).
	Retries int
	// Backoff is the delay before the first retry; it doubles per attempt
	// (capped at 5 s) with deterministic ±25% jitter derived from the
	// address and attempt number, so a fleet of clients hammering one
	// recovering daemon spreads out the same way on every run
	// (default 50 ms).
	Backoff time.Duration
	// Faults optionally injects client-side faults at the FaultClient*
	// sites. Nil keeps the path fault-free.
	Faults *faults.Injector
}

func (o DialOptions) withDefaults() DialOptions {
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	return o
}

// Client is a binary-protocol connection to a decision daemon. It is not
// safe for concurrent use — open one Client per load-generator worker
// (requests on one connection are strictly request/response). When built
// with DialOptions.Retries > 0 it transparently reconnects with
// exponential backoff after dropped connections and re-sends the
// in-flight request (decision requests are idempotent). Without retries
// a failed round trip still fails its call, and the next call dials anew.
type Client struct {
	conn net.Conn
	br   *bufio.Reader

	addr string
	opts DialOptions
	ctx  context.Context

	reconnects int64
	// dropped says the connection was closed after a failed round trip and
	// the next exchange must dial before it writes.
	dropped bool
	// columns is the mask of the columns the next request carries: all of
	// them on a new connection, then whatever the last response said the
	// peer reads.
	columns uint64

	// tracer, when set, emits client.send/client.recv spans for sampled
	// traced requests.
	tracer *telemetry.Tracer

	// frame is the last response read; out the last frame sent, its
	// 4-byte length prefix and then the payload, encoded in place so the
	// frame goes out with one Write and no copy.
	frame []byte
	out   []byte
	decs  []Decision
}

// Dial connects to a daemon's binary-protocol address with the default
// options (one 5 s attempt, no retries).
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, DialOptions{})
}

// DialContext connects to a daemon's binary-protocol address. ctx bounds
// the initial connection (including retries) and the backoff sleeps of
// later reconnects.
func DialContext(ctx context.Context, addr string, opts DialOptions) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Client{addr: addr, opts: opts.withDefaults(), ctx: ctx}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (useful for tests over
// loopback or net.Pipe). A Client built this way has no address and
// cannot reconnect.
func NewClient(conn net.Conn) *Client {
	c := &Client{ctx: context.Background(), opts: DialOptions{}.withDefaults()}
	c.bind(conn)
	return c
}

// Reconnects returns how many times the client re-established its
// connection.
func (c *Client) Reconnects() int64 { return c.reconnects }

// Columns returns the mask of the columns the next request will carry
// (bit i: counters.Def(i)) — AllColumns until the peer has answered once
// on this connection.
func (c *Client) Columns() uint64 { return c.columns }

// SetTracer installs a span tracer for this client's traced requests.
func (c *Client) SetTracer(tr *telemetry.Tracer) { c.tracer = tr }

func (c *Client) bind(conn net.Conn) {
	c.conn, c.dropped, c.columns = conn, false, AllColumns
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 64<<10)
	} else {
		c.br.Reset(conn)
	}
}

// headroom returns the client's frame buffer emptied down to the 4 bytes
// its length prefix takes, ready for a payload to be appended.
func (c *Client) headroom() []byte { return append(c.out[:0], 0, 0, 0, 0) }

// send fills in the length prefix of frame, built after headroom, and
// writes the whole frame with one Write; frame becomes the client's
// frame buffer.
func (c *Client) send(frame []byte) error {
	c.out = frame
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := c.conn.Write(frame)
	return err
}

func (c *Client) dialOnce() error {
	if err := c.opts.Faults.Inject(FaultClientDial); err != nil {
		return err
	}
	d := net.Dialer{Timeout: c.opts.Timeout}
	conn, err := d.DialContext(c.ctx, "tcp", c.addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if c.conn != nil {
		c.conn.Close()
		c.reconnects++
	}
	c.bind(conn)
	return nil
}

// connect establishes the connection, retrying with backoff up to
// opts.Retries times.
func (c *Client) connect() error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.dialOnce(); err == nil {
			return nil
		}
		if attempt >= c.opts.Retries {
			return err
		}
		if serr := c.backoffSleep(attempt); serr != nil {
			return serr
		}
	}
}

// backoffSleep waits out the attempt's backoff delay, honouring ctx.
func (c *Client) backoffSleep(attempt int) error {
	t := time.NewTimer(backoffDelay(c.opts.Backoff, attempt, c.addr))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-c.ctx.Done():
		return c.ctx.Err()
	}
}

// backoffDelay is base·2^attempt capped at 5 s, scaled by a deterministic
// jitter factor in [0.75, 1.25) derived from the address and attempt —
// the same schedule on every run, but different across clients of
// different addresses and across attempts.
func backoffDelay(base time.Duration, attempt int, addr string) time.Duration {
	if attempt > 16 {
		attempt = 16
	}
	d := base << uint(attempt)
	if d > 5*time.Second || d <= 0 {
		d = 5 * time.Second
	}
	h := faults.Mix64(faults.HashString(addr) ^ uint64(attempt))
	frac := 0.75 + 0.5*float64(h>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}

// DecideKeyed sends one batch and waits for its decisions, reconnecting
// and re-sending on connection failures when retries are configured. Rows
// are full counters.Num-wide vectors, of which the frame carries the
// columns the peer last said it reads; they carry their (gpu, cluster)
// identity, or -1/-1 for none, and every returned decision says which
// fleet shard answered it and whether it was rerouted; against a plain
// daemon the decisions come back with Shard == -1. The returned slice is
// reused by the next call.
func (c *Client) DecideKeyed(rows []Request) ([]Decision, error) {
	decs, _, err := c.exchange(rows, nil)
	return decs, err
}

// DecideKeyedTraced sends one batch carrying distributed-trace context
// and returns the server's per-hop latency attribution alongside the
// decisions. An invalid (zero) context degrades to exactly DecideKeyed —
// the unsampled hot path pays nothing.
func (c *Client) DecideKeyedTraced(rows []Request, tc telemetry.TraceContext) ([]Decision, HopTimings, error) {
	if !tc.Valid() {
		return c.exchange(rows, nil)
	}
	return c.exchange(rows, &tc)
}

// Negotiate performs the hello/ack exchange and returns the server's
// answer: the protocol version, whether the peer is a fleet router, its
// shard count, backend and model generation. A server that does not speak
// Version answers with a structured *ProtoError instead of dropping the
// connection.
func (c *Client) Negotiate() (Hello, error) {
	if err := c.send(AppendHelloFrame(c.headroom(), Version, Version)); err != nil {
		return Hello{}, err
	}
	frame, err := ReadFrame(c.br, c.frame)
	if err != nil {
		return Hello{}, err
	}
	c.frame = frame[:cap(frame)]
	return DecodeHelloAckFrame(frame)
}

// exchange runs the request/response retry loop for rows, sent traced
// when tc is non-nil. The request is encoded inside the loop because the
// column mask it goes under can change between attempts: a reconnect
// resets it to full, and a StatusColumns refusal — the peer reads a column
// the frame lacked, and decided nothing — swaps in the peer's mask and
// goes round again at once, neither sleeping nor spending a retry.
func (c *Client) exchange(rows []Request, tc *telemetry.TraceContext) ([]Decision, HopTimings, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			if err := c.backoffSleep(attempt - 1); err != nil {
				return nil, HopTimings{}, err
			}
			if c.addr == "" {
				return nil, HopTimings{}, lastErr // NewClient-wrapped conns cannot reconnect
			}
		}
		// Also how a client without retries recovers: the failed call
		// returned its error, this one starts on a new connection.
		if c.dropped && c.addr != "" {
			if err := c.dialOnce(); err != nil {
				lastErr = err
				continue
			}
		}
		var (
			decs []Decision
			hops HopTimings
			err  error
		)
		for refusals := 0; ; refusals++ {
			req, encErr := appendRequest(c.headroom(), rows, c.columns, tc)
			if encErr != nil {
				// Encoding failures are caller bugs (bad batch shape), not
				// transport faults — never retried.
				return nil, HopTimings{}, encErr
			}
			if decs, hops, err = c.roundTrip(req, len(rows), tc); err != errColumns || refusals == 2 {
				break
			}
			// roundTrip adopted the peer's mask; send again under it. A
			// second refusal in a row means the set moved again under the
			// call: stop chasing and send full rows, which cover any set. A
			// full frame refused is a peer gone wrong, handled below.
			if refusals == 1 {
				c.columns = AllColumns
			}
		}
		if err == nil {
			return decs, hops, nil
		}
		var pe *ProtoError
		if errors.As(err, &pe) {
			// A structured refusal is authoritative — the server will say
			// the same thing again; do not burn retries on it.
			return nil, HopTimings{}, err
		}
		lastErr = err
		// The stream can no longer be trusted (half-written frame,
		// truncated or miscounted response): drop the connection before
		// retrying.
		c.conn.Close()
		c.dropped = true
	}
	return nil, HopTimings{}, lastErr
}

// roundTrip sends req, a request frame built after headroom, and reads
// and decodes the response to its n rows.
func (c *Client) roundTrip(req []byte, n int, tc *telemetry.TraceContext) ([]Decision, HopTimings, error) {
	if err := c.opts.Faults.Inject(FaultClientIO); err != nil {
		return nil, HopTimings{}, err
	}
	wantType, span := byte(MsgDecisionsKeyed), telemetry.TraceContext{}
	if tc != nil {
		wantType, span = MsgDecisionsTraced, *tc
	}
	sendSp := c.tracer.StartSpan(span, "client.send")
	err := c.send(req)
	sendSp.End()
	if err != nil {
		return nil, HopTimings{}, err
	}
	recvSp := c.tracer.StartSpan(span, "client.recv")
	frame, err := ReadFrame(c.br, c.frame)
	recvSp.End()
	if err != nil {
		var pe *ProtoError
		if errors.As(err, &pe) {
			// An oversized prefix is this stream gone bad, not the peer's
			// refusal: retryable like any other read error.
			err = fmt.Errorf("serve: reading response: %s", pe.Msg)
		}
		return nil, HopTimings{}, err
	}
	c.frame = frame[:cap(frame)]
	decs, hops, columns, err := decodeResponse(frame, c.decs, wantType)
	if err != nil {
		if err == errColumns {
			c.columns = columns
		}
		return nil, HopTimings{}, err
	}
	c.decs, c.columns = decs, columns
	if len(decs) != n {
		return nil, HopTimings{}, fmt.Errorf("serve: peer answered %d rows with %d decisions", n, len(decs))
	}
	return decs, hops, nil
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }
