package replica

import "net"

// SetDial replaces the standby's TCP dialer, so a test can stand an
// in-memory primary in. Call it before Run.
func SetDial(s *Standby, dial func(addr string) (net.Conn, error)) { s.dial = dial }
