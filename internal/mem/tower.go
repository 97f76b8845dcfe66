package mem

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// TowerLevels is the most levels a skip-list tower can have.
const TowerLevels = 20

// Tower is one skip-list node, the node type of both skip lists (the lazy
// one in package conc and the OTB one). A search reads only Key and the next
// pointer of the level it is on, so those come first: Key, then level 0's
// next, then what the lists read of a node they have found (its value, its
// lock-and-mark Word, its height and whether it is fully linked), then
// levels 1 and up. A tower is sized to its height, in three classes of
// 1, 2–4 and 5–20 levels (32, 64 and 192 bytes), so three towers in four
// cost 32 bytes instead of a 20-level node's 200; Next finds the upper
// levels past the end of the Tower struct, inside the class's object.
type Tower struct {
	Key  int64
	next atomic.Pointer[Tower] // level 0
	// Val is a map's value; sets leave it 0.
	Val atomic.Uint64
	// Word is the tower's lock, its mark (logically deleted) and a version
	// every publishing Unlock advances.
	Word Word
	// lvl is the top level, plus linkedBit once the tower is fully linked.
	lvl atomic.Uint32
	// levels 1..top follow, in the size class's object
}

const (
	linkedBit = 1 << 8
	towerSize = unsafe.Sizeof(Tower{})
	ptrSize   = unsafe.Sizeof(atomic.Pointer[Tower]{})
)

// The two taller size classes: a Tower and the next pointers of its levels
// above 0.
type (
	tower4 struct {
		Tower
		up [3]atomic.Pointer[Tower]
	}
	tower20 struct {
		Tower
		up [TowerLevels - 1]atomic.Pointer[Tower]
	}
)

// Next returns the next pointer of level l, which must be at most t.Top().
// Levels above 0 lie past the Tower struct in the same object, which is why
// l must stay within the tower's class.
func (t *Tower) Next(l int) *atomic.Pointer[Tower] {
	if l == 0 {
		return &t.next
	}
	return (*atomic.Pointer[Tower])(unsafe.Add(unsafe.Pointer(t), towerSize+uintptr(l-1)*ptrSize))
}

// Top returns the tower's top level.
func (t *Tower) Top() int { return int(t.lvl.Load() &^ linkedBit) }

// Linked reports whether every level of the tower is linked.
func (t *Tower) Linked() bool { return t.lvl.Load()&linkedBit != 0 }

// SetLinked records that every level of the tower is linked.
func (t *Tower) SetLinked() { t.lvl.Or(linkedBit) }

// Marked reports whether the tower is logically deleted.
func (t *Tower) Marked() bool { return IsMarked(t.Word.Load()) }

// towerPools holds the free towers of each size class.
var towerPools = [3]sync.Pool{
	{New: func() any { return new(Tower) }},
	{New: func() any { return &new(tower4).Tower }},
	{New: func() any { return &new(tower20).Tower }},
}

// towerClass returns the size class of a tower whose top level is top.
func towerClass(top int) int {
	switch {
	case top == 0:
		return 0
	case top < 4:
		return 1
	default:
		return 2
	}
}

// NewTower returns an unlinked, unmarked tower for key with levels 0..top
// and value 0, drawn from its size class. A recycled tower keeps its Word's
// version, which must stay monotone.
func NewTower(key int64, top int) *Tower {
	t := towerPools[towerClass(top)].Get().(*Tower)
	t.Key = key
	t.Val.Store(0)
	t.Word.Reuse()
	t.lvl.Store(uint32(top))
	return t
}

// FreeTower returns a tower to its size class. It is the epoch.Retire
// callback, so a tower is reused only once every traversal that could reach
// it has unpinned. Its next pointers are cleared, so that a free tower
// retains nothing of a dead structure.
func FreeTower(v any) {
	t := v.(*Tower)
	top := t.Top()
	for l := 0; l <= top; l++ {
		t.Next(l).Store(nil)
	}
	towerPools[towerClass(top)].Put(t)
}
