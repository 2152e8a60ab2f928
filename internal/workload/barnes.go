package workload

import (
	"fmt"
	"math"

	"senss/internal/cpu"
	"senss/internal/machine"
	"senss/internal/psync"
)

// Barnes is the SPLASH2 "barnes" stand-in: a 2-D Barnes-Hut N-body step.
// Thread 0 builds the quadtree in shared memory (the original's tree build
// is also mostly serialized); all threads then walk the shared tree to
// compute forces on their bodies — heavy read sharing of the upper tree
// levels — and integrate their own bodies.
type Barnes struct {
	n     int
	steps int
	theta float64

	px, py, vx, vy, ax, ay array
	nodes                  array // node pool
	poolCount              uint64
	barMem                 uint64
	bar                    *psync.Barrier

	initPx, initPy, initVx, initVy []float64
}

// Quadtree node layout, in words.
const (
	nodeKind  = 0 // 0 empty, 1 leaf, 2 internal
	nodeMass  = 1
	nodeComX  = 2
	nodeComY  = 3
	nodeCX    = 4 // cell center
	nodeCY    = 5
	nodeHalf  = 6
	nodeChild = 8  // 4 children: pool index+1, 0 = none
	nodeBody  = 12 // body index+1 for leaves
	nodeWords = 16 // 128 bytes, 2 cache lines
)

const (
	kindEmpty    = 0
	kindLeaf     = 1
	kindInternal = 2
)

// NewBarnes builds the barnes workload at the given scale.
func NewBarnes(size Size) *Barnes {
	n := 32
	if size == SizeBench {
		n = 96
	}
	return &Barnes{n: n, steps: 1, theta: 0.5}
}

// Name implements Workload.
func (w *Barnes) Name() string { return "barnes" }

// Setup implements Workload.
func (w *Barnes) Setup(m *machine.Machine, procs int) []cpu.Program {
	n := w.n
	w.px = alloc(m, n)
	w.py = alloc(m, n)
	w.vx = alloc(m, n)
	w.vy = alloc(m, n)
	w.ax = alloc(m, n)
	w.ay = alloc(m, n)
	maxNodes := 8*n + 16
	w.nodes = alloc(m, maxNodes*nodeWords)
	w.poolCount = m.Alloc(64)
	w.barMem = m.Alloc(64)
	w.bar = psync.NewBarrier(w.barMem, procs)

	r := m.Rand()
	for i := 0; i < n; i++ {
		px := r.Float64()*2 - 1
		py := r.Float64()*2 - 1
		vx := (r.Float64()*2 - 1) * 0.1
		vy := (r.Float64()*2 - 1) * 0.1
		w.initPx = append(w.initPx, px)
		w.initPy = append(w.initPy, py)
		w.initVx = append(w.initVx, vx)
		w.initVy = append(w.initVy, vy)
		m.InitFloat(w.px.at(i), px)
		m.InitFloat(w.py.at(i), py)
		m.InitFloat(w.vx.at(i), vx)
		m.InitFloat(w.vy.at(i), vy)
	}

	progs := make([]cpu.Program, procs)
	for tid := 0; tid < procs; tid++ {
		tid := tid
		progs[tid] = func(c *cpu.Port) { w.thread(c, tid, procs) }
	}
	return progs
}

func (w *Barnes) nodeAddr(idx int, word int) uint64 {
	return w.nodes.at(idx*nodeWords + word)
}

// newNode grabs a fresh pool node (single-threaded build: plain counter).
func (w *Barnes) newNode(c *cpu.Port, cx, cy, half float64) int {
	idx := int(c.Load(w.poolCount))
	c.Store(w.poolCount, uint64(idx+1))
	c.Store(w.nodeAddr(idx, nodeKind), kindEmpty)
	c.StoreFloat(w.nodeAddr(idx, nodeCX), cx)
	c.StoreFloat(w.nodeAddr(idx, nodeCY), cy)
	c.StoreFloat(w.nodeAddr(idx, nodeHalf), half)
	for q := 0; q < 4; q++ {
		c.Store(w.nodeAddr(idx, nodeChild+q), 0)
	}
	return idx
}

// quadrant returns which child cell (x, y) falls in, given the cell center.
func quadrant(x, y, cx, cy float64) int {
	q := 0
	if x >= cx {
		q |= 1
	}
	if y >= cy {
		q |= 2
	}
	return q
}

// insert places body b into the tree rooted at node idx.
func (w *Barnes) insert(c *cpu.Port, idx, b int, x, y float64) {
	for {
		kind := c.Load(w.nodeAddr(idx, nodeKind))
		cx := c.LoadFloat(w.nodeAddr(idx, nodeCX))
		cy := c.LoadFloat(w.nodeAddr(idx, nodeCY))
		half := c.LoadFloat(w.nodeAddr(idx, nodeHalf))
		switch kind {
		case kindEmpty:
			c.Store(w.nodeAddr(idx, nodeKind), kindLeaf)
			c.Store(w.nodeAddr(idx, nodeBody), uint64(b+1))
			return
		case kindLeaf:
			// Split: push the resident body down, retry.
			old := int(c.Load(w.nodeAddr(idx, nodeBody))) - 1
			ox := c.LoadFloat(w.px.at(old))
			oy := c.LoadFloat(w.py.at(old))
			c.Store(w.nodeAddr(idx, nodeKind), kindInternal)
			c.Store(w.nodeAddr(idx, nodeBody), 0)
			oq := quadrant(ox, oy, cx, cy)
			child := w.childFor(c, idx, oq, cx, cy, half)
			w.insert(c, child, old, ox, oy)
		case kindInternal:
			q := quadrant(x, y, cx, cy)
			idx = w.childFor(c, idx, q, cx, cy, half)
		}
	}
}

// childFor returns (creating on demand) child q of node idx.
func (w *Barnes) childFor(c *cpu.Port, idx, q int, cx, cy, half float64) int {
	ref := c.Load(w.nodeAddr(idx, nodeChild+q))
	if ref != 0 {
		return int(ref) - 1
	}
	h := half / 2
	nx, ny := cx-h, cy-h
	if q&1 != 0 {
		nx = cx + h
	}
	if q&2 != 0 {
		ny = cy + h
	}
	child := w.newNode(c, nx, ny, h)
	c.Store(w.nodeAddr(idx, nodeChild+q), uint64(child+1))
	return child
}

// summarize computes mass and center-of-mass bottom-up.
func (w *Barnes) summarize(c *cpu.Port, idx int) (mass, comX, comY float64) {
	kind := c.Load(w.nodeAddr(idx, nodeKind))
	switch kind {
	case kindLeaf:
		b := int(c.Load(w.nodeAddr(idx, nodeBody))) - 1
		mass = 1.0
		comX = c.LoadFloat(w.px.at(b))
		comY = c.LoadFloat(w.py.at(b))
	case kindInternal:
		for q := 0; q < 4; q++ {
			ref := c.Load(w.nodeAddr(idx, nodeChild+q))
			if ref == 0 {
				continue
			}
			m, x, y := w.summarize(c, int(ref)-1)
			mass += m
			comX += m * x
			comY += m * y
		}
		if mass > 0 {
			comX /= mass
			comY /= mass
		}
	}
	c.StoreFloat(w.nodeAddr(idx, nodeMass), mass)
	c.StoreFloat(w.nodeAddr(idx, nodeComX), comX)
	c.StoreFloat(w.nodeAddr(idx, nodeComY), comY)
	return mass, comX, comY
}

const (
	softening = 0.05
	dt        = 0.01
)

// force accumulates the acceleration on body b by walking the tree.
func (w *Barnes) force(c *cpu.Port, b int, x, y float64) (axv, ayv float64) {
	stack := []int{0}
	for len(stack) > 0 {
		idx := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		kind := c.Load(w.nodeAddr(idx, nodeKind))
		if kind == kindEmpty {
			continue
		}
		mass := c.LoadFloat(w.nodeAddr(idx, nodeMass))
		comX := c.LoadFloat(w.nodeAddr(idx, nodeComX))
		comY := c.LoadFloat(w.nodeAddr(idx, nodeComY))
		dx := comX - x
		dy := comY - y
		dist2 := dx*dx + dy*dy + softening*softening
		if kind == kindLeaf {
			bi := int(c.Load(w.nodeAddr(idx, nodeBody))) - 1
			if bi == b {
				continue
			}
			inv := 1 / (dist2 * math.Sqrt(dist2))
			axv += mass * dx * inv
			ayv += mass * dy * inv
			continue
		}
		half := c.LoadFloat(w.nodeAddr(idx, nodeHalf))
		if (2*half)*(2*half) < w.theta*w.theta*dist2 {
			inv := 1 / (dist2 * math.Sqrt(dist2))
			axv += mass * dx * inv
			ayv += mass * dy * inv
			continue
		}
		for q := 0; q < 4; q++ {
			if ref := c.Load(w.nodeAddr(idx, nodeChild+q)); ref != 0 {
				stack = append(stack, int(ref)-1)
			}
		}
	}
	return axv, ayv
}

func (w *Barnes) thread(c *cpu.Port, tid, procs int) {
	var ctx psync.Context
	n := w.n
	for step := 0; step < w.steps; step++ {
		if tid == 0 {
			// Rebuild the tree: reset the pool, make the root, insert all.
			c.Store(w.poolCount, 0)
			root := w.newNode(c, 0, 0, 2.0)
			for b := 0; b < n; b++ {
				w.insert(c, root, b, c.LoadFloat(w.px.at(b)), c.LoadFloat(w.py.at(b)))
			}
			w.summarize(c, root)
		}
		w.bar.Wait(c, &ctx)

		lo, hi := chunk(n, procs, tid)
		for b := lo; b < hi; b++ {
			x := c.LoadFloat(w.px.at(b))
			y := c.LoadFloat(w.py.at(b))
			axv, ayv := w.force(c, b, x, y)
			c.StoreFloat(w.ax.at(b), axv)
			c.StoreFloat(w.ay.at(b), ayv)
		}
		w.bar.Wait(c, &ctx)

		for b := lo; b < hi; b++ {
			vx := c.LoadFloat(w.vx.at(b)) + dt*c.LoadFloat(w.ax.at(b))
			vy := c.LoadFloat(w.vy.at(b)) + dt*c.LoadFloat(w.ay.at(b))
			c.StoreFloat(w.vx.at(b), vx)
			c.StoreFloat(w.vy.at(b), vy)
			c.StoreFloat(w.px.at(b), c.LoadFloat(w.px.at(b))+dt*vx)
			c.StoreFloat(w.py.at(b), c.LoadFloat(w.py.at(b))+dt*vy)
		}
		w.bar.Wait(c, &ctx)
	}
}

// Validate implements Workload: the Barnes-Hut accelerations of the final
// force pass must be close to a direct O(n²) sum over the same positions
// (θ=0.5 keeps the approximation within a few percent).
func (w *Barnes) Validate(m *machine.Machine) error {
	if err := checkBarnesForces(w.lastForcePass(m)); err != nil {
		return err
	}
	// Sanity: no NaNs escaped.
	for b := 0; b < w.n; b++ {
		if math.IsNaN(m.ReadFloat(w.px.at(b))) || math.IsNaN(m.ReadFloat(w.vy.at(b))) {
			return fmt.Errorf("barnes: NaN in body %d state", b)
		}
	}
	return nil
}

// lastForcePass reads the positions at the start of the final force pass
// (rolling velocities back one step) and the accelerations it stored.
func (w *Barnes) lastForcePass(m *machine.Machine) (px, py, ax, ay []float64) {
	n := w.n
	px, py = make([]float64, n), make([]float64, n)
	ax, ay = make([]float64, n), make([]float64, n)
	for b := 0; b < n; b++ {
		px[b] = m.ReadFloat(w.px.at(b)) - dt*m.ReadFloat(w.vx.at(b))
		py[b] = m.ReadFloat(w.py.at(b)) - dt*m.ReadFloat(w.vy.at(b))
		ax[b] = m.ReadFloat(w.ax.at(b))
		ay[b] = m.ReadFloat(w.ay.at(b))
	}
	return px, py, ax, ay
}

// checkBarnesForces compares the accelerations (ax, ay) against a direct
// O(n²) sum over the positions (px, py). Each body's error is divided by
// the RMS direct-sum magnitude over all bodies, not by the body's own:
// where net forces cancel, a body's own magnitude is near zero and an
// ordinary approximation error would read as a large relative one.
func checkBarnesForces(px, py, ax, ay []float64) error {
	n := len(px)
	errs := make([]float64, n)
	var sumSq float64
	for b := 0; b < n; b++ {
		var axd, ayd float64
		for o := 0; o < n; o++ {
			if o == b {
				continue
			}
			dx := px[o] - px[b]
			dy := py[o] - py[b]
			d2 := dx*dx + dy*dy + softening*softening
			inv := 1 / (d2 * math.Sqrt(d2))
			axd += dx * inv
			ayd += dy * inv
		}
		errs[b] = math.Hypot(ax[b]-axd, ay[b]-ayd)
		sumSq += axd*axd + ayd*ayd
	}
	rms := math.Sqrt(sumSq / float64(n))
	if rms < 1e-12 {
		return nil
	}
	var worst, sum float64
	for _, e := range errs {
		e /= rms
		sum += e
		worst = math.Max(worst, e)
	}
	mean := sum / float64(n)
	if !(mean <= 0.05 && worst <= 0.5) { // NaN fails too
		return fmt.Errorf("barnes: BH vs direct acceleration error mean %.3f worst %.3f", mean, worst)
	}
	return nil
}
