"""Uncached reference rules of a lexicon, to check ``Lexicon``'s memoized ones against,
and a reference statement split built on them, to check ``extract_spo`` against.

Each call works the token out again from the lexicon's declared fields:
no answer is kept between calls, and nothing is read from the lexicon's
cached properties or memos.
"""

import re

from essencemap.lta import BUILTIN_STOPWORDS, BUILTIN_VERBS, add_synonym_group, stem


def _synonyms(lexicon):
    table = {}
    for group in lexicon.synonym_groups:
        add_synonym_group(table, group)
    return table


def reference_canonicalize_part(tokens, lexicon):
    """Drop stopwords, stem, fold synonym groups, drop canonical stopwords."""
    stop = BUILTIN_STOPWORDS | lexicon.extra_stopwords
    synonyms = _synonyms(lexicon)
    out = set()
    for token in tokens:
        if token in stop:
            continue
        stemmed = stem(token)
        canonical = synonyms.get(stemmed, stemmed)
        if canonical in stop:
            continue
        out.add(canonical)
    return frozenset(out)


def reference_is_verb(token, lexicon):
    """A listed verb, or a token with the stem of one."""
    verbs = BUILTIN_VERBS | lexicon.extra_verbs
    return token in verbs or stem(token) in {stem(v) for v in verbs}


def reference_tokenize(text):
    """Lowercase, drop both apostrophes, then take the runs of ``[a-z0-9]``."""
    return re.findall(r"[a-z0-9]+", text.lower().replace("'", "").replace("\u2019", ""))


def reference_extract_spo(text, owner, lexicon):
    """(subject, predicate, object) token runs of one statement.

    The predicate is the first run of verbs before the first period; the
    subject is the tokens before it, or the owner's name when there are
    none or there is no verb; the object is every other token.
    """
    head, _, tail = text.partition(".")
    tokens = reference_tokenize(head)
    verbs = [reference_is_verb(t, lexicon) for t in tokens]
    start = verbs.index(True) if True in verbs else len(tokens)
    end = start
    while end < len(tokens) and verbs[end]:
        end += 1
    subject = tokens[:start] if end > start else []
    rest = tokens[end:] if end > start else tokens
    return (tuple(subject or reference_tokenize(owner)), tuple(tokens[start:end]),
            tuple(rest + reference_tokenize(tail)))
