"""The gather of one local step, as ``localopt.local_train`` makes it, for tests that drive the kernel by hand."""


def gather(stack, rows, ws):
    """Gather an (m, B) array of shard-local indices into ``ws.features`` and point ``ws.picked`` at its label index.

    The two calls of a local step: :meth:`models.ShardStack.minibatches`,
    which checks and offsets the indices, then one ``features.take``.
    """
    [index], [ws.picked] = stack.minibatches(rows[None], ws)
    stack.features.take(index, axis=0, out=ws.features, mode="clip")
