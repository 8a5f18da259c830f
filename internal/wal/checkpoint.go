package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// CheckpointFile is the checkpoint's name inside the log directory.
const CheckpointFile = "checkpoint.ckpt"

const (
	ckptMagic   = "SBXK"
	ckptVersion = 1
)

// WriteCheckpoint atomically replaces the log directory's checkpoint
// with payload — opaque to the log: the serving layer declares and
// encodes what a checkpoint holds (internal/serve), this file frames it
// (magic, version, length, CRC-32C) and makes it durable: write a temp
// file, fsync it, rename over the old one, fsync the directory, both
// fsyncs through the syncFile seam. A crash mid-write leaves the
// previous checkpoint intact. Any error, the directory's fsync's
// included, is returned: until it succeeds the rename may not be
// durable, so the caller must not retire the segments the checkpoint
// stands in for.
func (l *Log) WriteCheckpoint(payload []byte) error {
	buf := make([]byte, 0, 12+len(payload)+4)
	buf = append(buf, ckptMagic...)
	buf = append(buf, ckptVersion, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))

	tmp := filepath.Join(l.cfg.Dir, CheckpointFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := l.syncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.cfg.Dir, CheckpointFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	return l.syncDir()
}

// ReadCheckpoint returns the payload of dir's checkpoint, verified
// against its frame. A missing file returns (nil, nil) — recovery then
// rebuilds everything from the segments alone. A corrupt or truncated
// checkpoint is an error: silently ignoring it could double-publish
// sealed windows.
func ReadCheckpoint(dir string) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(b) < 12+4 || string(b[:4]) != ckptMagic {
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	if b[4] != ckptVersion {
		return nil, fmt.Errorf("wal: unsupported checkpoint version %d", b[4])
	}
	n := int(binary.LittleEndian.Uint32(b[8:]))
	if len(b) != 12+n+4 {
		return nil, fmt.Errorf("wal: checkpoint length %d, header says %d: %w", len(b), 12+n+4, io.ErrUnexpectedEOF)
	}
	payload := b[12 : 12+n]
	want := binary.LittleEndian.Uint32(b[12+n:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("wal: checkpoint checksum %08x, want %08x", got, want)
	}
	return payload, nil
}
