//go:build !linux

package transport

import (
	"bufio"
	"net"
)

// newPacketStream makes the packet stream over conn. Only Linux streams
// send payloads from files (fileStream.SendFile); elsewhere every stream
// Sends buffers.
func newPacketStream(conn net.Conn, br *bufio.Reader, frozen func() bool) PacketStream {
	return &tcpPacketStream{conn: conn, br: br, frozen: frozen}
}
