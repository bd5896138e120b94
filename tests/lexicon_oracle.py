"""Uncached reference rules of a lexicon, to check ``Lexicon``'s memoized ones against.

Each call works the token out again from the lexicon's declared fields:
no answer is kept between calls, and nothing is read from the lexicon's
cached properties or memos.
"""

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
