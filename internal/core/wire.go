package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
)

// growWire serializes growMsg relaxation requests for cross-process
// shipping: uvarint node, uvarint center (two's-complement cast, so the -1
// sentinel round-trips), then the two distances as raw little-endian
// float64 bits — distances cross the wire bit-exactly, which the
// transport-equivalence guarantee depends on.
var growWire = bsp.WireCodec[growMsg]{
	MinSize: 1 + 1 + 8 + 8,
	Append: func(buf []byte, m growMsg) []byte {
		buf = binary.AppendUvarint(buf, uint64(m.node))
		buf = binary.AppendUvarint(buf, uint64(uint32(m.center)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.sd))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.td))
		return buf
	},
	Read: func(data []byte) (growMsg, int, error) {
		var m growMsg
		node, n := binary.Uvarint(data)
		if n <= 0 || node > math.MaxUint32 {
			return m, 0, fmt.Errorf("bad node field")
		}
		pos := n
		center, n := binary.Uvarint(data[pos:])
		if n <= 0 || center > math.MaxUint32 {
			return m, 0, fmt.Errorf("bad center field")
		}
		pos += n
		if len(data)-pos < 16 {
			return m, 0, fmt.Errorf("truncated distances")
		}
		m.node = graph.NodeID(node)
		m.center = int32(uint32(center))
		m.sd = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		m.td = math.Float64frombits(binary.LittleEndian.Uint64(data[pos+8:]))
		return m, pos + 16, nil
	},
	Node: func(m growMsg) uint32 { return m.node },
}
