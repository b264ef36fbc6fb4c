package runtime

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// kernelUDPDrops reads the kernel's receive-drop counter for the given
// local port from the /proc/net/udp tables — the drops the
// kernel made because a socket buffer was full, which no userspace
// counter sees. Returns 0 wherever the tables are unavailable (non-
// Linux hosts, restricted containers): the counter is best-effort
// diagnostics, not accounting the protocol depends on.
func kernelUDPDrops(port int) int64 {
	if port == 0 {
		return 0
	}
	var total int64
	for _, path := range []string{"/proc/net/udp", "/proc/net/udp6"} {
		total += procUDPDrops(path, port)
	}
	return total
}

// procUDPDrops parses one kernel UDP table. Row shape (header then one
// socket per line):
//
//	sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode ref pointer drops
//	 0: 0100007F:A6B2 00000000:0000 07 00000000:00000000 00:00000000 00000000     0        0 12345 2 ... 17
//
// The local port is the hex field after the colon in local_address; the
// drop counter is the final field.
func procUDPDrops(path string, port int) int64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	var total int64
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 13 {
			continue
		}
		local := fields[1]
		colon := strings.LastIndexByte(local, ':')
		if colon < 0 {
			continue
		}
		p, err := strconv.ParseInt(local[colon+1:], 16, 32)
		if err != nil || int(p) != port {
			continue
		}
		drops, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			continue
		}
		total += drops
	}
	return total
}
