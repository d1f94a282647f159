package hive

import "time"

// Clock supplies nanosecond timestamps. It is injectable (Config.Clock) so
// simulated read latency is testable without wall-clock sleeps.
type Clock func() int64

// wallClock is the production clock.
func wallClock() int64 { return time.Now().UnixNano() }
