package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
)

// The TCP transport runs peer rounds over one listener (rank 0 listens,
// ranks 1..N-1 dial in). Each round every rank encodes its records once,
// sends that frame to every peer while reading every peer's, decodes
// theirs and concatenates all N parts itself in rank order, its own at its
// own rank. The codec is exact fp32, so every rank folds the same records
// into bit-identical weights, after one encode, one concurrent swap, the
// decodes and the concatenation. Rank 0 also forwards each client's frame
// verbatim, in rank order, to the other clients. ExchangeStats counts the
// bytes this rank wrote to and read from its sockets.
//
// Handshake (client → server): magic[4] | rank u16 | shards u16 |
// digest u64. Server ack: magic[4] | status u8 (0 = ok).
// Round frame (both ways): step u64 | flags u8 (bit0 = stop) | len u32 |
// payload (Codec-encoded delta). All integers little-endian.
//
// The digest is an opaque caller-computed fingerprint of everything the
// replicas must agree on beyond layer shapes (which the codec already
// validates): network config including the weight-init seed and Adam
// hyperparameters, batch size, iteration count. Ranks whose digests
// differ would silently diverge — same parts, different step arithmetic
// — so the server refuses them at join time.

// tcpProtocol versions the round protocol apart from the codec; the
// handshake magic carries both, so a rank built for the hub rounds ("SDX"
// + codec version) or another wire format is refused, not diverged from.
const tcpProtocol = 2

var tcpMagic = [4]byte{'S', 'D', '0' + tcpProtocol, '0' + codecVersion}

const (
	frameHeaderLen = 13
	// maxFramePayload bounds a peer-announced payload length before
	// allocation; the codec's shape validation bounds it far tighter
	// afterwards.
	maxFramePayload = 1 << 30
)

// ExchangeStats accounts one rank's exchange rounds and measured
// communication: BytesOut and BytesIn are the bytes the rank wrote to and
// read from its sockets — its own encoded delta (the §6 sparse payload)
// to every peer, and every peer's, frame headers and rank 0's relays
// included.
type ExchangeStats struct {
	Rounds   int64
	BytesOut int64
	BytesIn  int64
}

// BytesOutPerRound returns the mean measured upload per exchange round.
func (s ExchangeStats) BytesOutPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.BytesOut) / float64(s.Rounds)
}

// BytesInPerRound returns the mean measured download per exchange round.
func (s ExchangeStats) BytesInPerRound() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.BytesIn) / float64(s.Rounds)
}

// peerRound is one rank's side of the round protocol, shared by TCPServer
// and TCPClient: its own frame, the peers' frames by rank, and the merge.
type peerRound struct {
	codec  *Codec
	rank   int
	own    []byte
	frames []frame
	parts  []*core.SparseDelta
	merged *core.SparseDelta
	mu     sync.Mutex // guards stats
	stats  ExchangeStats
}

// frame is one peer's part of a round: header, raw payload, decoded delta.
type frame struct {
	step    int64
	stop    bool
	payload []byte
	n       int   // bytes read; 0 when the read failed
	err     error // the read's, then the decode's
	delta   *core.SparseDelta
	read    chan struct{} // closed once the frame is read
}

// link is one connection (rank 0 to a client, or a client to rank 0): the
// ranks whose frames arrive on it, in order, and those it forwards.
type link struct {
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	from     []int
	forwards []int
	sent     int
	err      error
}

func newLink(conn net.Conn, from, forwards []int) *link {
	return &link{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), from: from, forwards: forwards}
}

// ranks lists the ranks in [lo, shards) other than except, ascending.
func ranks(lo, shards, except int) []int {
	var out []int
	for r := lo; r < shards; r++ {
		if r != except {
			out = append(out, r)
		}
	}
	return out
}

// Shards implements core.ShardCounter (the group size the rank joined).
func (pr *peerRound) Shards() int { return len(pr.frames) }

// round runs one peer round over links. Per link, one goroutine sends the
// encoded local delta and then forwards beside one that reads and decodes:
// frames far larger than the socket buffers would block two ranks that
// both wrote first. A failed read, decode or send closes every link, so
// the group fails fast and no goroutine outlives the round.
func (pr *peerRound) round(links []*link, step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	var err error
	if pr.own, err = pr.codec.AppendDelta(pr.own[:0], local); err != nil {
		return nil, false, err
	}
	cut := func() {
		for _, l := range links {
			l.conn.Close()
		}
	}
	for _, l := range links {
		l.conn.SetDeadline(time.Now().Add(roundTimeout)) // both directions
		for _, r := range l.from {
			pr.frames[r].read = make(chan struct{})
		}
	}
	var wg sync.WaitGroup
	for _, l := range links {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, r := range l.from {
				f := &pr.frames[r]
				f.step, f.stop, f.payload, f.n, f.err = readFrame(l.br, f.payload)
				close(f.read) // forwarding reads no field the decode writes
				if f.err == nil {
					f.delta, f.err = pr.codec.DecodeDelta(f.delta, f.payload)
				}
				if f.err != nil {
					cut()
				}
			}
		}()
		go func() {
			defer wg.Done()
			if l.sent, l.err = pr.send(l, step, stop); l.err != nil {
				cut()
			}
		}()
	}
	wg.Wait()
	merged, stopAll, err := pr.merge(links, step, local, stop)
	if err != nil {
		cut()
	}
	return merged, stopAll, err
}

// send writes this rank's frame on l, then forwards l's frames verbatim,
// each as soon as it has been read, returning the bytes written.
func (pr *peerRound) send(l *link, step int64, stop bool) (int, error) {
	n, err := writeFrame(l.bw, step, stop, pr.own)
	for _, r := range l.forwards {
		f := &pr.frames[r]
		if err != nil {
			return n, err
		}
		if <-f.read; f.n == 0 {
			return n, fmt.Errorf("rank %d's frame to forward was lost", r)
		}
		m, werr := writeFrame(l.bw, f.step, f.stop, f.payload)
		n, err = n+m, werr
	}
	return n, err
}

// merge ends a round: a failed or out-of-step peer frame, else a failed
// send, fails it; otherwise the stop flags are ORed, all parts
// concatenated in rank order (local at this rank's index) and the bytes
// counted.
func (pr *peerRound) merge(links []*link, step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	stopAll, in := stop, int64(0)
	for r := range pr.frames {
		f := &pr.frames[r]
		switch {
		case r == pr.rank:
			pr.parts[r] = local
			continue
		case f.err != nil:
			return nil, false, fmt.Errorf("dist: rank %d: %w", r, f.err)
		case f.step != step:
			return nil, false, fmt.Errorf("dist: rank %d at step %d, rank %d at %d", r, f.step, pr.rank, step)
		}
		stopAll = stopAll || f.stop
		pr.parts[r] = f.delta
		in += int64(f.n)
	}
	var out int64
	for _, l := range links {
		if l.err != nil {
			return nil, false, fmt.Errorf("dist: sending delta: %w", l.err)
		}
		out += int64(l.sent)
	}
	merged, err := core.MergeDeltas(pr.merged, pr.parts)
	if err != nil {
		return nil, false, err
	}
	pr.merged = merged
	pr.mu.Lock()
	pr.stats.Rounds++
	pr.stats.BytesOut += out
	pr.stats.BytesIn += in
	pr.mu.Unlock()
	return merged, stopAll, nil
}

// Stats returns the rounds and the bytes this rank wrote and read.
func (pr *peerRound) Stats() ExchangeStats {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.stats
}

// TCPServer is rank 0 of a TCP-sharded group: it accepts the other ranks
// and forwards each client's frames to the other clients.
type TCPServer struct {
	peerRound
	digest uint64
	ln     net.Listener

	ready   chan struct{} // closed once all peers joined (or joining failed)
	joinErr error
	peers   []*link // by rank; index 0 unused

	// joinMu/joining track the connection currently mid-handshake so
	// Close can cut it loose instead of waiting out its read.
	joinMu  sync.Mutex
	joining net.Conn

	closeOnce sync.Once
	closed    chan struct{}
}

// ListenExchanger binds addr and starts accepting the group's other
// ranks in the background; the first Exchange call waits until all
// shards-1 peers have joined, and peers whose schedule digest disagrees
// are refused (see the protocol comment). The returned server is rank
// 0's core.DeltaExchanger.
func ListenExchanger(addr string, shards int, codec *Codec, digest uint64) (*TCPServer, error) {
	if shards < 2 {
		return nil, fmt.Errorf("dist: TCP exchange needs at least 2 shards, got %d", shards)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{
		peerRound: peerRound{codec: codec, frames: make([]frame, shards), parts: make([]*core.SparseDelta, shards)},
		digest:    digest,
		ln:        ln,
		ready:     make(chan struct{}),
		peers:     make([]*link, shards),
		closed:    make(chan struct{}),
	}
	go s.acceptPeers()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// handshakeTimeout bounds how long one joining connection may sit
// silent before the join loop moves on: without it a port scanner or
// half-open socket that never sends its hello would stall every
// legitimate rank queued behind it.
const handshakeTimeout = 10 * time.Second

// roundTimeout bounds every round's reads and writes. A synchronous
// exchange legitimately waits out the slowest peer's between-batch work
// (evaluations, table rebuilds) but never minutes of it; a peer that
// is SIGSTOPed, partitioned without an RST, or deadlocked would
// otherwise hang every rank's training loop forever with no error.
const roundTimeout = 5 * time.Minute

// joinTimeout bounds how long the server's first Exchange waits for the
// group to assemble. It comfortably exceeds the clients' dial-retry
// window, so it only fires when a peer is truly never coming (crashed
// before dialing, wrong address) — the one case that would otherwise
// hang rank 0 forever.
const joinTimeout = 3 * time.Minute

// acceptPeers runs the join phase: accept connections until every rank
// 1..shards-1 has completed a valid handshake. Invalid, silent or
// duplicate handshakes are refused without aborting the join.
func (s *TCPServer) acceptPeers() {
	defer close(s.ready)
	joined := 0
	for joined < s.Shards()-1 {
		conn, err := s.ln.Accept()
		if err != nil {
			s.joinErr = fmt.Errorf("dist: accepting shard: %w", err)
			return
		}
		s.joinMu.Lock()
		s.joining = conn
		s.joinMu.Unlock()
		conn.SetDeadline(time.Now().Add(handshakeTimeout))
		rank, err := s.handshake(conn)
		conn.SetDeadline(time.Time{})
		s.joinMu.Lock()
		s.joining = nil
		s.joinMu.Unlock()
		if err != nil {
			conn.Close()
			continue
		}
		s.peers[rank] = newLink(conn, []int{rank}, ranks(1, s.Shards(), rank))
		joined++
	}
}

// handshake validates one joining client and acks it.
func (s *TCPServer) handshake(conn net.Conn) (int, error) {
	var hello [16]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, err
	}
	rank := int(binary.LittleEndian.Uint16(hello[4:6]))
	shards := int(binary.LittleEndian.Uint16(hello[6:8]))
	digest := binary.LittleEndian.Uint64(hello[8:16])
	ok := [4]byte(hello[:4]) == tcpMagic &&
		shards == s.Shards() &&
		digest == s.digest &&
		rank >= 1 && rank < shards &&
		s.peers[rank] == nil
	var ack [5]byte
	copy(ack[:], tcpMagic[:])
	if !ok {
		ack[4] = 1
	}
	if _, err := conn.Write(ack[:]); err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("dist: rejected handshake (rank %d, shards %d, digest %#x)", rank, shards, digest)
	}
	return rank, nil
}

// ScheduleDigest fingerprints everything the replicas of one group must
// agree on beyond layer shapes: the full network config (weight-init
// seed, Adam hyperparameters, table settings), the per-shard batch size,
// the iteration count and the group's base shuffle seed (before rank
// striping). tc is read for BatchSize and Iterations only (never rendered
// whole: it carries function values); OverlapExchange is deliberately
// excluded, since overlapped and synchronous replicas run the same
// exchange sequence and may share a group. Every hashed field is plain
// data, so the rendering is deterministic across processes.
func ScheduleDigest(cfg core.Config, tc core.TrainConfig, baseSeed uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|%d|%d", cfg, tc.BatchSize, tc.Iterations, baseSeed)
	return h.Sum64()
}

// Exchange implements core.DeltaExchanger for rank 0: once the group has
// assembled, one peer round with every client.
func (s *TCPServer) Exchange(step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	select {
	case <-s.ready:
	case <-s.closed:
		return nil, false, fmt.Errorf("dist: exchanger closed")
	case <-time.After(joinTimeout):
		return nil, false, fmt.Errorf("dist: group did not assemble within %v (a rank crashed before dialing, or was launched with the wrong address?)", joinTimeout)
	}
	if s.joinErr != nil {
		return nil, false, s.joinErr
	}
	return s.round(s.peers[1:], step, local, stop)
}

// Close shuts the listener and every peer connection down. In-flight
// Exchange calls on either side fail with I/O errors.
func (s *TCPServer) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.ln.Close()
		// Cut a connection stuck mid-handshake loose so the join phase
		// (which owns s.peers until it finishes) can exit now rather
		// than after its read times out.
		s.joinMu.Lock()
		if s.joining != nil {
			s.joining.Close()
		}
		s.joinMu.Unlock()
		<-s.ready
		for _, p := range s.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	})
	return nil
}

// TCPClient is one non-zero rank of a TCP-sharded group.
type TCPClient struct {
	peerRound
	links []*link // the one connection, to rank 0
}

// dialRetryWindow is how long DialExchanger keeps retrying a failing
// connection: in a multi-process launch the rank-0 server and its
// clients start in arbitrary order, so "connection refused" usually
// just means rank 0 is not up yet.
const (
	dialRetryWindow = time.Minute
	dialRetryPause  = 250 * time.Millisecond
)

// DialExchanger connects rank (1..shards-1) to the rank-0 server at addr
// and completes the handshake, retrying connection failures for up to a
// minute so launch order between the processes does not matter. digest
// must match the server's (see the protocol comment); a mismatch —
// replicas launched with different batch/iteration/seed/model settings —
// is rejected at join time instead of silently diverging the weights.
// The returned client is that rank's core.DeltaExchanger.
func DialExchanger(addr string, rank, shards int, codec *Codec, digest uint64) (*TCPClient, error) {
	if rank < 1 || rank >= shards {
		return nil, fmt.Errorf("dist: TCP client rank must be in [1,%d), got %d", shards, rank)
	}
	var conn net.Conn
	var err error
	for deadline := time.Now().Add(dialRetryWindow); ; time.Sleep(dialRetryPause) {
		conn, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: rank %d could not reach the exchange at %s: %w", rank, addr, err)
		}
	}
	// Bound the handshake like the server does: a connect that landed in
	// the listen backlog after the group filled (restarted rank, extra
	// rank, wrong -shards) would otherwise hang on the ack read forever.
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	var hello [16]byte
	copy(hello[:4], tcpMagic[:])
	binary.LittleEndian.PutUint16(hello[4:6], uint16(rank))
	binary.LittleEndian.PutUint16(hello[6:8], uint16(shards))
	binary.LittleEndian.PutUint64(hello[8:16], digest)
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, err
	}
	var ack [5]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dist: rank %d handshake got no ack (group already full, or wrong address?): %w", rank, err)
	}
	conn.SetDeadline(time.Time{})
	if ack[3] != tcpMagic[3] {
		conn.Close()
		return nil, fmt.Errorf("dist: server at %s speaks delta codec v%c, rank %d speaks v%d", addr, ack[3], rank, codecVersion)
	}
	if [4]byte(ack[:4]) != tcpMagic || ack[4] != 0 {
		conn.Close()
		return nil, fmt.Errorf("dist: server at %s rejected rank %d/%d handshake (duplicate rank, or mismatched -shards/batch/iterations/seed/model settings?)", addr, rank, shards)
	}
	return &TCPClient{
		peerRound: peerRound{codec: codec, rank: rank, frames: make([]frame, shards), parts: make([]*core.SparseDelta, shards)},
		// Rank 0's frame arrives first, then the other clients' it forwards.
		links: []*link{newLink(conn, ranks(0, shards, rank), nil)},
	}, nil
}

// Exchange implements core.DeltaExchanger: one peer round. Each round
// re-arms the round deadline, so a hung group surfaces as an error instead
// of blocking the replica forever.
func (c *TCPClient) Exchange(step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	return c.round(c.links, step, local, stop)
}

// Close drops the connection.
func (c *TCPClient) Close() error { return c.links[0].conn.Close() }

// writeFrame emits one length-prefixed round frame and flushes, returning
// the bytes written. The sender enforces the same payload bound the
// receiver does: shipping an over-limit frame would waste the transfer
// before the peer rejects it, and a >4 GiB payload would wrap the u32
// length and desync the stream.
func writeFrame(bw *bufio.Writer, step int64, stop bool, payload []byte) (int, error) {
	if len(payload) > maxFramePayload {
		return 0, fmt.Errorf("dist: delta of %d bytes exceeds the %d frame limit", len(payload), maxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(step))
	if stop {
		hdr[8] = 1
	}
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := bw.Write(payload); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return frameHeaderLen + len(payload), nil
}

// readFrame reads one round frame into buf (grown as needed), returning
// the header fields, the payload view and the total bytes consumed.
func readFrame(br *bufio.Reader, buf []byte) (step int64, stop bool, payload []byte, n int, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(br, hdr[:]); err != nil {
		return 0, false, buf, 0, err
	}
	step = int64(binary.LittleEndian.Uint64(hdr[:8]))
	stop = hdr[8]&1 != 0
	plen := binary.LittleEndian.Uint32(hdr[9:13])
	if plen > maxFramePayload {
		return 0, false, buf, 0, fmt.Errorf("dist: frame payload %d exceeds limit", plen)
	}
	// The buffer grows as the payload arrives: a peer announcing a payload
	// it never sends costs no more than what it sent.
	for buf = buf[:0]; len(buf) < int(plen); {
		m := min(int(plen)-len(buf), max(cap(buf)-len(buf), 64<<10))
		buf = slices.Grow(buf, m)
		if _, err = io.ReadFull(br, buf[len(buf):len(buf)+m]); err != nil {
			return 0, false, buf, 0, err
		}
		buf = buf[:len(buf)+m]
	}
	return step, stop, buf, frameHeaderLen + int(plen), nil
}
