// Package parallel is a fixture: goroutine-lifecycle hazards. It sits at
// the substrate path, where golife applies like everywhere else: its
// findings stand alone — a leak-on-every-path loop, a stop channel that is
// closed but never joined, a spawn with no directive, an unbacked spawns
// claim, and the clean stop+done join shape.
package parallel

// Leaky spawns a forever-loop with no termination signal.
//
//declint:spawns fixture: intentionally leaky send loop
func Leaky(ch chan int) {
	go func() {
		for {
			ch <- 1
		}
	}()
}

// Pump owns a loop that can be signalled but never joined.
type Pump struct {
	stop chan struct{}
}

// StartPump launches the pump loop.
//
//declint:spawns one pump loop per Pump; signalled via p.stop
func StartPump() *Pump {
	p := &Pump{stop: make(chan struct{})}
	go func() {
		for {
			select {
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Stop signals the pump but never waits for it to exit.
func (p *Pump) Stop() {
	close(p.stop)
}

// Fire spawns a bounded goroutine but carries no directive.
func Fire(done chan struct{}) {
	go func() {
		close(done)
	}()
}

// Calm claims to spawn but does not.
//
//declint:spawns fixture: claim with no goroutine behind it
func Calm() {}

// Ticker is the clean shape: a stop channel plus a done join.
type Ticker struct {
	stop chan struct{}
	done chan struct{}
}

// StartTicker launches a joined loop.
//
//declint:spawns one loop per Ticker; select on t.stop, joined via t.done
func StartTicker() *Ticker {
	t := &Ticker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		for {
			select {
			case <-t.stop:
				return
			}
		}
	}()
	return t
}

// Stop halts the loop and waits for it to exit.
func (t *Ticker) Stop() {
	close(t.stop)
	<-t.done
}
