"""Columnar zero-copy codec layer.

One binary vocabulary — varints, fixed-width float columns, XOR-delta
float columns, bitmaps, front-coded sorted key columns and a tagged value
encoding — shared by the two consumers that used to each invent their own:

* the RPC wire (:mod:`repro.codec.wire`): stateless columnar batch frames
  for update, query and neighbour bodies (a neighbour frame carries its
  own object table, and its distances are reconstructed from the query
  location);
* on-disk SSTable blocks, request-log frames and snapshots
  (:mod:`repro.codec.blocks`): the real files behind the
  :mod:`repro.disk.store` backend.

Everything is pure ``struct``/``array``/``memoryview`` Python — no new
dependencies.  The tagged value encoding (:mod:`repro.codec.values`, with
the closed record table of :mod:`repro.codec.records`) is the only
self-describing form: batches the columnar layouts cannot carry ride it as
the *general* frame, and a value it has no tag for is a
:class:`~repro.errors.CodecError` where it is encoded.  Every reader raises
the same error for truncated, inflated or unknown input.
"""
