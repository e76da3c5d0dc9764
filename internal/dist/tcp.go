package dist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// The TCP transport is a hub: rank 0 listens and merges, ranks 1..N-1
// dial in. Every frame is length-prefixed; each round, every client sends
// its encoded local delta and receives the encoded merged delta back —
// one upload and one download of §6's sparse payload per replica per
// batch, which is exactly what the byte accounting measures.
//
// Handshake (client → server): magic[4] | rank u16 | shards u16 |
// digest u64. Server ack: magic[4] | status u8 (0 = ok).
// Round frame (both ways): step u64 | flags u8 (bit0 = stop) | len u32 |
// payload (Codec-encoded delta).
// All integers little-endian.
//
// The digest is an opaque caller-computed fingerprint of everything the
// replicas must agree on beyond layer shapes (which the codec already
// validates): network config including the weight-init seed and Adam
// hyperparameters, batch size, iteration count. Ranks whose digests
// differ would silently diverge — same merged delta, different step
// arithmetic — so the server refuses them at join time.

// tcpMagic carries the codec version, so a rank built for another wire
// format is refused at the handshake rather than at its first frame.
var tcpMagic = [4]byte{'S', 'D', 'X', '0' + codecVersion}

const (
	frameHeaderLen = 13
	// maxFramePayload bounds a peer-announced payload length before
	// allocation; the codec's shape validation bounds it far tighter
	// afterwards.
	maxFramePayload = 1 << 30
)

// TCPServer is rank 0 of a TCP-sharded group: it accepts the other
// ranks' connections, and on every Exchange gathers their deltas, merges
// all shards in rank order, and broadcasts the merged result.
type TCPServer struct {
	codec  *Codec
	shards int
	digest uint64
	ln     net.Listener

	ready   chan struct{} // closed once all peers joined (or joining failed)
	joinErr error
	peers   []*tcpPeer // by rank; index 0 unused

	// joinMu/joining track the connection currently mid-handshake so
	// Close can cut it loose instead of waiting out its read.
	joinMu  sync.Mutex
	joining net.Conn

	closeOnce sync.Once
	closed    chan struct{}

	encodeBuf    []byte
	mergeScratch *core.SparseDelta
	parts        []*core.SparseDelta

	mu    sync.Mutex
	stats ExchangeStats
}

// tcpPeer is one connected client rank, plus its per-round scratch.
type tcpPeer struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	payload []byte
	delta   *core.SparseDelta
	step    int64
	stop    bool
	read    int
	err     error
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
		codec:  codec,
		shards: shards,
		digest: digest,
		ln:     ln,
		ready:  make(chan struct{}),
		peers:  make([]*tcpPeer, shards),
		closed: make(chan struct{}),
		parts:  make([]*core.SparseDelta, shards),
	}
	go s.acceptPeers()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// Shards implements core.ShardCounter (the group size the server was
// configured with).
func (s *TCPServer) Shards() int { return s.shards }

// handshakeTimeout bounds how long one joining connection may sit
// silent before the join loop moves on: without it a port scanner or
// half-open socket that never sends its hello would stall every
// legitimate rank queued behind it.
const handshakeTimeout = 10 * time.Second

// roundTimeout bounds every round's reads and writes. A synchronous
// exchange legitimately waits out the slowest peer's between-batch work
// (evaluations, rebuild snapshots) but never minutes of it; a peer that
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
	for joined < s.shards-1 {
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
		s.peers[rank] = &tcpPeer{
			conn: conn,
			br:   bufio.NewReader(conn),
			bw:   bufio.NewWriter(conn),
		}
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
		shards == s.shards &&
		digest == s.digest &&
		rank >= 1 && rank < s.shards &&
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

// Exchange implements core.DeltaExchanger for rank 0: gather every
// client's delta for this step, merge all shards in rank order, and
// broadcast the merged delta with the coordinated stop flag.
func (s *TCPServer) Exchange(step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	join := time.NewTimer(joinTimeout)
	select {
	case <-s.ready:
	case <-s.closed:
		join.Stop()
		return nil, false, fmt.Errorf("dist: exchanger closed")
	case <-join.C:
		return nil, false, fmt.Errorf("dist: group did not assemble within %v (a rank crashed before dialing, or was launched with the wrong address?)", joinTimeout)
	}
	join.Stop()
	if s.joinErr != nil {
		return nil, false, s.joinErr
	}

	// Gather: one concurrent read per peer so slow links overlap. The
	// round deadline covers both directions; it is re-armed every round.
	var wg sync.WaitGroup
	for _, p := range s.peers[1:] {
		wg.Add(1)
		go func(p *tcpPeer) {
			defer wg.Done()
			p.conn.SetDeadline(time.Now().Add(roundTimeout))
			p.step, p.stop, p.payload, p.read, p.err = readFrame(p.br, p.payload)
			if p.err == nil {
				p.delta, p.err = s.codec.DecodeDelta(p.delta, p.payload)
			}
		}(p)
	}
	wg.Wait()
	var bytesIn int64
	stopAll := stop
	for rank, p := range s.peers[1:] {
		if p.err != nil {
			return nil, false, s.failRound(fmt.Errorf("dist: rank %d: %w", rank+1, p.err))
		}
		if p.step != step {
			return nil, false, s.failRound(fmt.Errorf("dist: rank %d at step %d, server at %d", rank+1, p.step, step))
		}
		stopAll = stopAll || p.stop
		bytesIn += int64(p.read)
	}

	// The wire carries exact fp32, so the merged delta rank 0 applies is
	// bit-identical to what every client decodes from the broadcast.
	s.parts[0] = local
	for r := 1; r < s.shards; r++ {
		s.parts[r] = s.peers[r].delta
	}
	merged, err := core.MergeDeltas(s.mergeScratch, s.parts)
	if err != nil {
		return nil, false, s.failRound(err)
	}
	s.mergeScratch = merged

	s.encodeBuf, err = s.codec.AppendDelta(s.encodeBuf[:0], merged)
	if err != nil {
		return nil, false, s.failRound(err)
	}
	var bytesOut int64
	var werr error
	var wmu sync.Mutex
	for _, p := range s.peers[1:] {
		wg.Add(1)
		go func(p *tcpPeer) {
			defer wg.Done()
			n, err := writeFrame(p.bw, step, stopAll, s.encodeBuf)
			wmu.Lock()
			bytesOut += int64(n)
			if err != nil && werr == nil {
				werr = err
			}
			wmu.Unlock()
		}(p)
	}
	wg.Wait()
	if werr != nil {
		return nil, false, s.failRound(fmt.Errorf("dist: broadcasting merged delta: %w", werr))
	}

	s.mu.Lock()
	s.stats.Rounds++
	s.stats.BytesIn += bytesIn
	s.stats.BytesOut += bytesOut
	s.mu.Unlock()
	return merged, stopAll, nil
}

// failRound tears down the peer connections when a round cannot
// complete — the hub's analog of Mesh.Fail. A rank blocked reading the
// merged frame (it already uploaded this round) unblocks with a
// connection error immediately instead of waiting out roundTimeout; the
// group is dead either way, since the hub's training loop is about to
// exit on the returned error.
func (s *TCPServer) failRound(err error) error {
	for _, p := range s.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	return err
}

// Stats returns the server's transport accounting: BytesIn is the sum of
// client uploads received, BytesOut the merged broadcasts sent.
func (s *TCPServer) Stats() ExchangeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
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
	codec  *Codec
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	shards int

	encodeBuf []byte
	payload   []byte
	scratch   *core.SparseDelta

	mu    sync.Mutex
	stats ExchangeStats
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
	if [4]byte(ack[:4]) != tcpMagic || ack[4] != 0 {
		conn.Close()
		return nil, fmt.Errorf("dist: server at %s rejected rank %d/%d handshake (duplicate rank, or mismatched -shards/batch/iterations/seed/model settings?)", addr, rank, shards)
	}
	return &TCPClient{
		codec:  codec,
		conn:   conn,
		br:     bufio.NewReader(conn),
		bw:     bufio.NewWriter(conn),
		shards: shards,
	}, nil
}

// Shards implements core.ShardCounter (the group size the client dialed
// with).
func (c *TCPClient) Shards() int { return c.shards }

// Exchange implements core.DeltaExchanger: upload the encoded local
// delta, download and decode the merged one. Each round re-arms the
// round deadline, so a hung hub surfaces as an error instead of
// blocking the replica forever.
func (c *TCPClient) Exchange(step int64, local *core.SparseDelta, stop bool) (*core.SparseDelta, bool, error) {
	var err error
	c.encodeBuf, err = c.codec.AppendDelta(c.encodeBuf[:0], local)
	if err != nil {
		return nil, false, err
	}
	c.conn.SetDeadline(time.Now().Add(roundTimeout))
	sent, err := writeFrame(c.bw, step, stop, c.encodeBuf)
	if err != nil {
		return nil, false, fmt.Errorf("dist: sending delta: %w", err)
	}
	mstep, stopAll, payload, read, err := readFrame(c.br, c.payload)
	if err != nil {
		return nil, false, fmt.Errorf("dist: receiving merged delta: %w", err)
	}
	c.payload = payload
	if mstep != step {
		return nil, false, fmt.Errorf("dist: merged delta for step %d, expected %d", mstep, step)
	}
	c.scratch, err = c.codec.DecodeDelta(c.scratch, payload)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.stats.Rounds++
	c.stats.BytesOut += int64(sent)
	c.stats.BytesIn += int64(read)
	c.mu.Unlock()
	return c.scratch, stopAll, nil
}

// Stats returns the client's measured upload/download accounting.
func (c *TCPClient) Stats() ExchangeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close drops the connection.
func (c *TCPClient) Close() error { return c.conn.Close() }

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
	if cap(buf) < int(plen) {
		buf = make([]byte, plen)
	}
	buf = buf[:plen]
	if _, err = io.ReadFull(br, buf); err != nil {
		return 0, false, buf, 0, err
	}
	return step, stop, buf, frameHeaderLen + int(plen), nil
}
